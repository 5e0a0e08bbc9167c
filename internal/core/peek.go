package core

import (
	"time"

	"atm/internal/hashx"
	"atm/internal/region"
	"atm/internal/taskrt"
)

// This file is the engine's out-of-band side: callers that hold a task's
// regions but submit no task — a front-end's lookup route (Peek) and its
// handler path (Serve). Both go through peekEntry, which hashes on a
// pooled hasher and probes the table without leaving a trace; only a
// Serve call that goes ahead then applies what the worker path (OnReady
// and OnFinished of a steady type) would have.

// peekEntry hashes ins at level on h and returns the table's entry for
// that key, retained for the caller, when its outputs can be copied into
// outs; nil otherwise. Nothing is counted or marked (THT.probe).
func (a *ATM) peekEntry(tt *taskrt.TaskType, ts *typeState, level int, ins, outs []region.Region, h hashx.Hasher) (*Entry, uint64) {
	key := a.hashIns(tt.ID(), ts, ins, level, h)
	return a.probeOuts(tt, key, int8(level), outs), key
}

// probeOuts is THT.probe for a task with outputs outs: an entry whose
// outputs cannot be copied into them counts as no entry.
func (a *ATM) probeOuts(tt *taskrt.TaskType, key uint64, level int8, outs []region.Region) *Entry {
	e := a.tht.probe(tt.ID(), key, level)
	if e != nil && !outputShapesMatch(e.Outs, outs) {
		e.Release()
		e = nil
	}
	return e
}

// Peek probes the THT for the outputs the engine would currently serve
// for a task of type tt with the given inputs, without submitting a
// task: on a hit the stored outputs are copied into outs (which must
// match the entry's shapes) and Peek reports true. A lookup is a peek,
// so it is quiet: no engine or table state changes — not the table's
// lookup/hit counters, not the admission sketch — and a probed key is
// no likelier to be admitted or kept for having been looked at. Safe to
// call from any goroutine — the memoization-lookup path of a network
// front-end (GET /v1/lookup in cmd/atmd).
//
// A false return means only that no entry exists at the type's current
// p level right now; a concurrent insert may land immediately after.
func (a *ATM) Peek(tt *taskrt.TaskType, ins, outs []region.Region) bool {
	ts := a.state(tt)
	_, level := ts.load()
	h := a.probeHasher()
	e, _ := a.peekEntry(tt, ts, level, ins, outs, h)
	a.releaseProbe(h)
	if e == nil {
		return false
	}
	for i, o := range outs {
		o.CopyFrom(e.Outs[i])
	}
	e.Release()
	return true
}

// outOfBandProvider marks the provider ids of entries Serve inserts: a
// range disjoint from the runtime's task ids (a creation counter from
// 0), so an entry's (key, level, provider) identity — what an eviction
// tombstone names — stays unique across both insert paths.
const outOfBandProvider = 1 << 63

// ServeTask is one task of a Serve request: its type, the regions a
// submitted task of that type would carry, and its body. The unexported
// fields are the call's scratch, so a caller that reuses its
// []ServeTask serves without allocating; no entry is held once Serve has
// returned.
type ServeTask struct {
	Type      *taskrt.TaskType
	Ins, Outs []region.Region
	// Run executes the task's body on Ins and Outs, as the type's
	// runtime body would. Serve calls it on a miss only, with Outs as the
	// caller left them: a body that need not write every output element
	// must clear Outs first.
	Run func(ins, outs []region.Region)

	ts    *typeState
	e     *Entry // the matched entry, retained between probe and commit
	key   uint64
	level int8
	// tscale is the extrapolation factor of this task's sampled timing
	// (0 = untimed), hashNanos its hash time already scaled.
	tscale    int64
	hashNanos int64
}

// Serve runs a whole request of steady-state tasks on the caller's
// goroutine — Fig. 1's ready-task protocol without the runtime: each
// hit's stored outputs are copied into its Outs, and each miss runs its
// body and inserts its outputs into the table as a worker's OnFinished
// would. It reports ok and the number of bodies run when it served the
// request, and false with Outs untouched and no counter, sketch cell or
// table entry changed when it did not. It does not when:
//
//   - a task's type is not memoizable, is still training or has an
//     exclusion set, or a tracer is attached (checked before the first
//     hash, so such a request costs no hashing, and admit is not
//     called); the caller then submits the request, whole, to the
//     runtime;
//   - the request holds misses and admit(misses) refuses them. Hits are
//     never refused: a request that is all hits does not call admit.
//
// Every task is probed first, quietly (THT.probe), holding what hits.
// Then, in request order, a task records exactly what a worker's OnReady
// (and, for a miss, OnFinished) records for it — the table's lookup and
// hit counters, the admission-sketch increment of a budgeted table, the
// type's Tasks, MemoizedTHT or Executed (on the out-of-band stats shard,
// which WorkerTotals leaves out) and the sampled hash/copy time
// estimate. A task that missed is probed again first, and so is every
// task after this request's first insert: a sibling's insert (or a
// concurrent one) may have added its key or evicted its entry since, so
// a key repeated within one request hits its sibling, as it does on the
// runtime.
//
// Misses take no IKT slot, so two concurrent identical misses may both
// run; their entries carry provider ids of their own (outOfBandProvider).
// Region identity is never observed (the exclusion set, keyed by output
// region, sends its types to the runtime), so callers may recycle region
// headers. Safe to call from any goroutine, concurrently with the
// runtime's workers, delta saves and full snapshots.
func (a *ATM) Serve(tasks []ServeTask, admit func(misses int) bool) (executed int, ok bool) {
	if a.rt != nil && a.rt.Tracer() != nil {
		return 0, false
	}
	for i := range tasks {
		t := &tasks[i]
		if !t.Type.Config().Memoize {
			return 0, false
		}
		ts := a.state(t.Type)
		ph, level := ts.load()
		if ph != phaseSteady || a.cfg.Mode == ModeDynamic && ts.hasExcl.Load() {
			return 0, false
		}
		t.ts, t.level = ts, int8(level)
	}

	h := a.probeHasher()
	misses := 0
	for i := range tasks {
		t := &tasks[i]
		// The worker path times the first timingWarmup tasks of a shard
		// and every timingSample-th after; the shard's count only moves
		// at commit, so the decision reads it one ahead.
		n := t.ts.shard(-1).tasks.Load() + 1
		t.tscale = 0
		if n <= timingWarmup {
			t.tscale = 1
		} else if n%timingSample == 0 {
			t.tscale = timingSample
		}
		var h0 time.Time
		if t.tscale != 0 {
			h0 = time.Now()
		}
		t.e, t.key = a.peekEntry(t.Type, t.ts, int(t.level), t.Ins, t.Outs, h)
		if t.e == nil {
			misses++
		}
		if t.tscale != 0 {
			t.hashNanos = time.Since(h0).Nanoseconds() * t.tscale
		}
	}
	a.releaseProbe(h)

	if misses > 0 && !admit(misses) {
		for i := range tasks {
			tasks[i].e.Release() // nil-safe
			tasks[i].e = nil
		}
		return 0, false
	}
	inserted := false
	for i := range tasks {
		t := &tasks[i]
		if t.e == nil || inserted {
			t.e.Release()
			t.e = a.probeOuts(t.Type, t.key, t.level, t.Outs)
		}
		if t.e != nil {
			a.commitHit(t)
			t.e.Release()
			t.e = nil
			continue
		}
		a.runMiss(t)
		executed++
		inserted = true
	}
	return executed, true
}

// commitHit is Serve's hit: the hit branch of OnReady and the counting
// half of THT.Lookup, on the out-of-band shard.
func (a *ATM) commitHit(t *ServeTask) {
	a.tht.noteLookup(t.key, t.e)
	sh := t.ts.shard(-1)
	var c0 time.Time
	if t.tscale != 0 {
		c0 = time.Now()
	}
	for i, o := range t.Outs {
		o.CopyFrom(t.e.Outs[i])
	}
	if t.tscale != 0 {
		sh.hashNanos.Add(t.hashNanos)
		sh.copyNanos.Add(time.Since(c0).Nanoseconds() * t.tscale)
	}
	sh.tasks.Add(1)
	sh.memoTHT.Add(1)
}

// runMiss is Serve's miss: OnReady's counted lookup, the body, and
// OnFinished's insert, on the out-of-band shard. The insert holds the
// snapshot fence shared, so a full Snapshot never scans the table
// around it (see ATM.serveInserts).
func (a *ATM) runMiss(t *ServeTask) {
	a.tht.noteLookup(t.key, nil)
	sh := t.ts.shard(-1)
	t.Run(t.Ins, t.Outs)
	var c0 time.Time
	if t.tscale != 0 {
		c0 = time.Now()
	}
	e := a.snapshotEntry(t.Type.ID(), t.Outs, outOfBandProvider|a.serveProviders.Add(1), t.key, t.level)
	a.serveInserts.RLock()
	a.tht.Insert(e)
	a.serveInserts.RUnlock()
	if t.tscale != 0 {
		sh.hashNanos.Add(t.hashNanos)
		sh.copyNanos.Add(time.Since(c0).Nanoseconds() * t.tscale)
	}
	sh.tasks.Add(1)
	sh.executed.Add(1)
}
