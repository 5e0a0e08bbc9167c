package core

import (
	"sync"

	"atm/internal/taskrt"
)

// iktKey identifies an in-flight computation.
type iktKey struct {
	typeID int
	key    uint64
	level  int8
}

// iktEntry tracks one in-flight task and the ready tasks waiting to reuse
// its outputs (the postponeCopyOuts() petitions of Fig. 1).
type iktEntry struct {
	provider *taskrt.Task
	waiters  []*taskrt.Task
}

// IKT is the In-flight Key Table of §III-A. It stores at most as many hash
// keys as there are threads in the parallel execution and is protected by
// a single lock: accesses are very fast compared to the THT because they
// involve no output copies. Only runtime tasks register: a body that
// ATM.Serve runs on a caller's goroutine takes no slot, so its counters
// count the runtime's providers and deferrals alone.
type IKT struct {
	mu  sync.Mutex
	cap int
	m   map[iktKey]*iktEntry

	defers   int64
	inserts  int64
	rejected int64 // insertions skipped because the table was full
}

// NewIKT builds an IKT bounded to cap in-flight keys (the thread count).
func NewIKT(cap int) *IKT {
	if cap < 1 {
		cap = 1
	}
	return &IKT{cap: cap, m: make(map[iktKey]*iktEntry, cap)}
}

// Acquire is the OnReady-side IKT protocol. If a task with the same key is
// in flight, t is registered as a waiter and Acquire returns
// (nil, true): the caller must defer t. Otherwise t becomes the in-flight
// provider for the key (if the table has room) and Acquire returns
// (key-inserted, false).
func (k *IKT) Acquire(key iktKey, t *taskrt.Task) (inserted, deferred bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if e, ok := k.m[key]; ok {
		if !outputShapesMatch(e.provider.Outputs(), t.Outputs()) {
			return false, false // incompatible shapes: just execute
		}
		e.waiters = append(e.waiters, t)
		k.defers++
		return false, true
	}
	if len(k.m) >= k.cap {
		k.rejected++
		return false, false
	}
	k.m[key] = &iktEntry{provider: t}
	k.inserts++
	return true, false
}

// Release removes t's in-flight entry and returns the tasks waiting on it.
// It must be called after the provider's outputs are final.
func (k *IKT) Release(key iktKey, t *taskrt.Task) []*taskrt.Task {
	k.mu.Lock()
	defer k.mu.Unlock()
	e, ok := k.m[key]
	if !ok || e.provider != t {
		return nil
	}
	delete(k.m, key)
	return e.waiters
}

// Len reports the number of in-flight keys currently tracked. It is
// zero whenever the runtime is quiescent (every provider releases its
// key at completion), which the snapshot path asserts.
func (k *IKT) Len() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.m)
}

// Counters returns (provider insertions, deferred waiters, full-table
// rejections).
func (k *IKT) Counters() (inserts, defers, rejected int64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.inserts, k.defers, k.rejected
}
