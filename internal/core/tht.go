package core

import (
	"sync"
	"sync/atomic"

	"atm/internal/region"
)

// Entry is one memoized task execution stored in the Task History Table:
// the 8-byte hash key of the (sampled) inputs, the percentage level the
// key was computed at, and a snapshot of the task's outputs. Entries are
// immutable while reachable, which lets hit paths copy from them without
// holding the bucket lock; a reference count tracks the table's own
// reference plus any in-flight readers, and an entry whose count drains
// to zero is recycled through the table's pool so a steady insert/evict
// stream stops allocating output buffers.
type Entry struct {
	TypeID     int
	Key        uint64
	Level      int8
	ProviderID uint64 // creation id of the task that produced the outputs
	Outs       []region.Region
	bytes      int64
	refs       atomic.Int32
	pool       *sync.Pool // where Release recycles it: its type's, or the table's
}

// retain marks an in-flight reader. Callers must pair it with Release.
func (e *Entry) retain() { e.refs.Add(1) }

// Release drops one reference. Once the table and every reader are done
// with the entry it returns to its pool for buffer reuse. Safe on a nil
// entry.
func (e *Entry) Release() {
	if e == nil {
		return
	}
	if e.refs.Add(-1) == 0 && e.pool != nil {
		p := e.pool
		e.pool = nil
		p.Put(e)
	}
}

// THT is the Task History Table of §III-A: 2^N buckets indexed by the low
// N bits of the hash key, each holding up to M entries with FIFO
// replacement. Each bucket is protected by its own RWMutex, supporting
// exclusive writes and parallel reads exactly as the paper describes.
// Buckets are ring buffers, so an insert into a full bucket overwrites
// the oldest slot in O(1) instead of shifting the whole bucket.
type THT struct {
	mask    uint64
	m       int
	buckets []thtBucket
	pool    sync.Pool // recycled entries published without a pool of their own

	// Budget/eviction state, immutable after ConfigureBudget (called
	// before the table is published): budget is the global payload cap
	// in bytes (0 = unbounded), sketch the admission frequency estimator
	// (non-nil exactly when budget > 0).
	budget int64
	sketch *freqSketch
	// hand is the eviction scan position (a bucket index, advanced
	// atomically so concurrent evictors spread over the table).
	hand atomic.Uint64

	// logging enables the per-bucket operation logs for incremental
	// snapshots (see thtBucket.log); DrainLog hands the accumulated
	// records (and the inserts' references) to the snapshotter.
	logging atomic.Bool

	memBytes     atomic.Int64
	entries      atomic.Int64
	lookups      atomic.Int64
	hits         atomic.Int64
	evicts       atomic.Int64
	budgetEvicts atomic.Int64
	admitRejects atomic.Int64
}

// logRec is one record in a bucket's operation log: an insert (e
// non-nil, retained on the log's behalf) or a tombstone marking an
// eviction (e nil). Tombstones copy the victim's identity instead of
// retaining it, so the log never pins an evicted entry's buffers; the
// identity fields are filled for both kinds.
type logRec struct {
	e        *Entry
	typeID   int
	key      uint64
	level    int8
	provider uint64
}

func tombstoneRec(e *Entry) logRec {
	return logRec{typeID: e.TypeID, key: e.Key, level: e.Level, provider: e.ProviderID}
}

// slot is one place in a bucket's ring: an entry and, beside it, its
// key, so a probe compares keys in place and reads an entry only when
// its key matches.
type slot struct {
	key uint64
	e   *Entry
}

type thtBucket struct {
	mu   sync.RWMutex
	ring []slot // oldest at head
	head int
	n    int
	// log records this bucket's operations — inserts (retained) and
	// eviction tombstones — for the next delta snapshot, appended under
	// mu so it preserves the bucket's operation order. Replaying the log
	// mirrors the bucket's occupancy step by step (every eviction,
	// whether ring replacement or budget pressure, is an explicit
	// tombstone), which is what lets Compact cancel insert/tombstone
	// pairs soundly. Keeping the log per bucket costs no extra
	// synchronization on insert and no cross-bucket contention.
	log []logRec
}

// removeAt removes the entry at ring offset i (0 = oldest), preserving
// the remaining entries' order, and returns it. Caller holds b.mu.
func (b *thtBucket) removeAt(i int) *Entry {
	e := b.ring[(b.head+i)%len(b.ring)].e
	if i == 0 {
		b.ring[b.head] = slot{}
		b.head = (b.head + 1) % len(b.ring)
		b.n--
		return e
	}
	for j := i; j < b.n-1; j++ {
		b.ring[(b.head+j)%len(b.ring)] = b.ring[(b.head+j+1)%len(b.ring)]
	}
	b.n--
	b.ring[(b.head+b.n)%len(b.ring)] = slot{}
	return e
}

// find returns the newest entry matching (typeID, key, level), or nil.
// The occupied slots are at most two contiguous runs — [head, len) and
// [0, wrapped) when the ring wraps — so the scan is two plain loops,
// newest first, with no modulo per slot. Caller holds b.mu.
func (b *thtBucket) find(typeID int, key uint64, level int8) *Entry {
	end, wrapped := b.head+b.n, 0
	if end > len(b.ring) {
		end, wrapped = len(b.ring), end-len(b.ring)
	}
	for i := wrapped - 1; i >= 0; i-- {
		if s := &b.ring[i]; s.key == key && s.e.TypeID == typeID && s.e.Level == level {
			return s.e
		}
	}
	for i := end - 1; i >= b.head; i-- {
		if s := &b.ring[i]; s.key == key && s.e.TypeID == typeID && s.e.Level == level {
			return s.e
		}
	}
	return nil
}

// MaxNBits bounds Config.NBits / NewTHT's nbits: 2^20 buckets already
// hold 128M entries at the paper's M=128 and cost ~100 MB of empty
// bucket headers — anything above is a misconfiguration, and nbits ≥ 31
// would overflow the shift. Config.Validate reports the violation as a
// typed error; NewTHT clamps defensively.
const MaxNBits = 20

// NewTHT builds a THT with 2^nbits buckets of capacity m each. The paper's
// sizing (§IV-B) is nbits = 8, m = 128. nbits is clamped into
// [0, MaxNBits]; use Config.Validate to surface out-of-range values as
// errors instead.
func NewTHT(nbits, m int) *THT {
	if nbits < 0 {
		nbits = 0
	}
	if nbits > MaxNBits {
		nbits = MaxNBits
	}
	if m <= 0 {
		m = 1
	}
	n := 1 << uint(nbits)
	return &THT{mask: uint64(n - 1), m: m, buckets: make([]thtBucket, n)}
}

// ConfigureBudget sets the table's global memory budget (bytes; 0 =
// unbounded) and, with a budget, allocates the admission sketch. Must
// be called before the table serves traffic — the fields are read
// without synchronization on the hot paths.
func (t *THT) ConfigureBudget(budget int64) {
	t.budget, t.sketch = 0, nil
	if budget > 0 {
		t.budget, t.sketch = budget, newFreqSketch()
	}
}

// Budget reports the configured global budget (0 = unbounded).
func (t *THT) Budget() int64 { return t.budget }

// Lookup returns the entry matching (typeID, key, level), or nil, and
// counts the access: probe plus noteLookup. A non-nil result is retained
// for the caller, who must Release it after copying from it (the table
// cannot recycle it before that).
func (t *THT) Lookup(typeID int, key uint64, level int8) *Entry {
	e := t.probe(typeID, key, level)
	t.noteLookup(key, e)
	return e
}

// probe is the table's one bucket scan: it returns the entry matching
// (typeID, key, level), retained for the caller as Lookup's is, or nil,
// and changes nothing else — no lookup or hit counter, no sketch
// increment. A caller that goes on to serve from the entry as a
// task's hit applies those with noteLookup; one that only looks (Peek)
// or gives up (a Serve whose misses were refused) leaves the table as it
// found it.
func (t *THT) probe(typeID int, key uint64, level int8) *Entry {
	b := &t.buckets[key&t.mask]
	b.mu.RLock()
	// Newest entries are most likely to match; find scans back to front.
	e := b.find(typeID, key, level)
	if e != nil {
		e.retain()
	}
	b.mu.RUnlock()
	return e
}

// noteLookup applies what one counted access to key leaves behind; e is
// what probe found (nil for a miss).
func (t *THT) noteLookup(key uint64, e *Entry) {
	t.lookups.Add(1)
	if t.sketch != nil {
		// Budgeted: every access feeds the frequency sketch (lock-free
		// nibble CAS), so the admission duel sees demand, not residency.
		t.sketch.inc(key)
	}
	if e != nil {
		t.hits.Add(1)
	}
}

// GetEntry returns a recycled entry of the table's own pool (with its
// previous output buffers still attached, for CopyFrom reuse when the
// shapes match) or a fresh one. The engine draws its entries from each
// type's pool instead (ATM.memoize); the table's pool holds the entries
// inserted without one.
func (t *THT) GetEntry() *Entry {
	if e, ok := t.pool.Get().(*Entry); ok && e != nil {
		return e
	}
	return &Entry{}
}

// poolOf returns the pool e recycles into: its own, or the table's.
func (t *THT) poolOf(e *Entry) *sync.Pool {
	if e.pool != nil {
		return e.pool
	}
	return &t.pool
}

// Insert adds e, evicting the bucket's oldest entry if it is full. The
// entry's memory size is computed idempotently, so re-inserting an entry
// (or inserting a recycled one) never double-counts. When the insert
// log is enabled the entry is recorded for the next delta snapshot.
// Under a budget Insert runs admission (Admit) first; a rejected e that
// nothing references goes back to the table's pool.
func (t *THT) Insert(e *Entry) { t.insert(e, true) }

// InsertRestored is Insert for entries installed from a persisted
// snapshot: they are already saved, so they bypass the insert log (a
// delta must carry only state the previous save did not). It returns
// the change in resident entries: 1 for e kept, less each entry its
// admission evicted or its bucket's ring replaced, and 0 or below when
// admission rejected e.
func (t *THT) InsertRestored(e *Entry) int { return t.insert(e, false) }

func (t *THT) insert(e *Entry, logIt bool) (resident int) {
	size := entryBytes(e.Outs)
	admitted, evicted := t.admit(e.Key, size)
	if !admitted {
		if e.refs.Load() == 0 {
			// Unreferenced, so never published: its buffers are free for
			// reuse. A re-inserted entry the table or a reader still holds
			// stays theirs.
			t.poolOf(e).Put(e)
		}
		return -evicted
	}
	return t.publish(e, size, logIt) - evicted
}

// entryBytes is the table's size of an entry holding outs: the payload
// plus the paper's 8-byte key cost, a provider id and a header.
func entryBytes(outs []region.Region) int64 {
	size := int64(8 + 8 + 8)
	for _, o := range outs {
		size += int64(o.NumBytes())
	}
	return size
}

// Admit runs the budget's admission for an entry of size bytes (payload
// plus 24) under key, before the entry exists: it evicts residents until
// the entry fits and reports true, or counts a rejection and reports
// false — larger than the budget outright, or a lost frequency duel.
// An unbudgeted table admits everything. It is the question the engine
// asks for a finished task before building its entry (ATM.memoize), so
// a rejected task builds none; the engine then publishes an admitted
// entry itself.
func (t *THT) Admit(key uint64, size int64) bool {
	ok, _ := t.admit(key, size)
	return ok
}

// publish inserts admitted e of size bytes, as Insert does after
// admission — a full bucket's oldest entry is replaced, and the insert
// is logged when logIt is set and delta tracking is on — and returns
// the change in resident entries: 1, or 0 when it replaced its bucket's
// oldest.
func (t *THT) publish(e *Entry, size int64, logIt bool) int {
	e.bytes = size
	e.pool = t.poolOf(e) // set before publication: readers may Release anytime
	e.retain()           // the table's reference
	var old *Entry
	b := &t.buckets[e.Key&t.mask]
	b.mu.Lock()
	if b.ring == nil {
		b.ring = make([]slot, min(8, t.m))
	}
	if b.n == t.m {
		old = b.ring[b.head].e
		b.ring[b.head] = slot{e.Key, e}
		b.head = (b.head + 1) % len(b.ring)
	} else {
		if b.n == len(b.ring) {
			grown := make([]slot, min(2*b.n, t.m))
			for i := 0; i < b.n; i++ {
				grown[i] = b.ring[(b.head+i)%len(b.ring)]
			}
			b.ring = grown
			b.head = 0
		}
		b.ring[(b.head+b.n)%len(b.ring)] = slot{e.Key, e}
		b.n++
	}
	// Still under b.mu: concurrent operations on this bucket reach the
	// log in ring order, so a replay of the log rebuilds identical
	// per-bucket FIFO state. A ring replacement logs the victim's
	// tombstone ahead of the insert — replay then mirrors the ring's
	// occupancy step by step instead of relying on implicit drops, which
	// is what makes Compact's insert/tombstone cancellation sound.
	if logging := t.logging.Load(); logging {
		if old != nil {
			b.log = append(b.log, tombstoneRec(old))
		}
		if logIt {
			e.retain() // the log's reference; dropped by the drain consumer
			b.log = append(b.log, logRec{e: e, typeID: e.TypeID, key: e.Key, level: e.Level, provider: e.ProviderID})
		}
	}
	b.mu.Unlock()
	// Apply the accounting as one net delta per counter: adding the new
	// entry's bytes before subtracting the victim's would let a
	// concurrent MemoryBytes reader (the budget evictor above included)
	// observe a transient overshoot at the boundary.
	delta, dn := size, int64(1)
	if old != nil {
		delta -= old.bytes
		dn--
		t.evicts.Add(1)
	}
	if delta != 0 {
		t.memBytes.Add(delta)
	}
	if dn != 0 {
		t.entries.Add(dn)
	}
	if old != nil {
		old.Release() // drop the table's reference; readers may linger
	}
	return int(dn)
}

// Remove deletes the oldest entry matching (typeID, key, level,
// provider), preserving the remaining ring order, and reports whether
// one was found. It is the replay side of an eviction tombstone
// (installSection), so it neither logs nor counts as an eviction — the
// removal it replays was already persisted.
func (t *THT) Remove(typeID int, key uint64, level int8, provider uint64) bool {
	b := &t.buckets[key&t.mask]
	b.mu.Lock()
	for i := 0; i < b.n; i++ {
		e := b.ring[(b.head+i)%len(b.ring)].e
		if e.Key == key && e.TypeID == typeID && e.Level == level && e.ProviderID == provider {
			b.removeAt(i)
			b.mu.Unlock()
			t.memBytes.Add(-e.bytes)
			t.entries.Add(-1)
			e.Release()
			return true
		}
	}
	b.mu.Unlock()
	return false
}

// forEach calls fn for every live entry, bucket by bucket in index
// order and oldest-first within a bucket — a deterministic order, so
// repeated snapshots of an idle table are byte-identical. Entries are
// retained across the callback (fn may safely read their buffers while
// concurrent inserts evict) and released afterwards; fn must not retain
// references past its return (it may retain one of its own). The
// result cuts each non-empty operation log where the visit read its
// bucket: every record before a cut is an operation whose outcome the
// visit saw, which is what trimLog drops.
func (t *THT) forEach(fn func(e *Entry)) []logCut {
	var batch []*Entry
	var cuts []logCut
	for bi := range t.buckets {
		b := &t.buckets[bi]
		b.mu.RLock()
		batch = batch[:0]
		for i := 0; i < b.n; i++ {
			e := b.ring[(b.head+i)%len(b.ring)].e
			e.retain()
			batch = append(batch, e)
		}
		if len(b.log) > 0 {
			cuts = append(cuts, logCut{bucket: bi, n: len(b.log)})
		}
		b.mu.RUnlock()
		for _, e := range batch {
			fn(e)
			e.Release()
		}
	}
	return cuts
}

// logCut is the length of one bucket's operation log at a forEach visit.
type logCut struct {
	bucket, n int
}

// trimLog drops the log records before each cut and releases the
// inserts' references, keeping whatever was logged after the visit for
// the next delta. The caller must exclude every other drain between the
// visit and the trim (the engine holds snapMu across both), so the
// records before a cut are still the ones the visit saw.
func (t *THT) trimLog(cuts []logCut) {
	for _, c := range cuts {
		b := &t.buckets[c.bucket]
		b.mu.Lock()
		for _, r := range b.log[:c.n] {
			r.e.Release() // nil-safe: tombstones hold no reference
		}
		rest := copy(b.log, b.log[c.n:])
		clear(b.log[rest:])
		b.log = b.log[:rest]
		b.mu.Unlock()
	}
}

// SetLogging turns the operation log on or off. Disabling releases any
// insert records still queued (their operations will not be replayable
// by a delta).
func (t *THT) SetLogging(on bool) {
	t.logging.Store(on)
	if !on {
		t.drainLog(func(r logRec) {
			r.e.Release() // nil-safe: tombstones hold no reference
		})
	}
}

// DrainLog takes the accumulated operation logs, bucket by bucket in
// index order. Each bucket's log is swapped out under its own lock, so
// an operation racing the drain lands wholly in this result or wholly
// in the next one — the exactly-once partition delta saves rely on.
// Cross-bucket ordering in the result is arbitrary, which replay
// tolerates (buckets are independent); per-bucket order is preserved,
// which tombstone replay requires. Insert records come retained (by
// Insert, on the log's behalf); the caller owns those references and
// must Release each record's entry when done with it (tombstone
// records hold none — Release is nil-safe).
func (t *THT) DrainLog() []logRec {
	var log []logRec
	t.drainLog(func(r logRec) { log = append(log, r) })
	return log
}

// logLen is the number of records the operation logs hold.
func (t *THT) logLen() int {
	n := 0
	for bi := range t.buckets {
		b := &t.buckets[bi]
		b.mu.Lock()
		n += len(b.log)
		b.mu.Unlock()
	}
	return n
}

// drainLog is DrainLog handing each record to fn, in DrainLog's order,
// under its bucket's lock, instead of gathering them: fn takes over the
// insert records' references.
func (t *THT) drainLog(fn func(r logRec)) {
	for bi := range t.buckets {
		b := &t.buckets[bi]
		b.mu.Lock()
		for _, r := range b.log {
			fn(r)
		}
		b.log = nil
		b.mu.Unlock()
	}
}

// MemoryBytes reports the table's current payload size (Table III's
// numerator).
func (t *THT) MemoryBytes() int64 { return t.memBytes.Load() }

// Entries reports the current number of stored entries.
func (t *THT) Entries() int64 { return t.entries.Load() }

// Counters returns (lookups, hits, evictions). Evictions count every
// entry displaced from the table — ring replacements and budget
// evictions alike.
func (t *THT) Counters() (lookups, hits, evicts int64) {
	return t.lookups.Load(), t.hits.Load(), t.evicts.Load()
}

// BudgetCounters returns the budget-pressure counters: evictions
// forced by the budget (a subset of Counters' evictions) and inserts
// rejected at admission (frequency duels lost, or entries larger than
// the budget).
func (t *THT) BudgetCounters() (budgetEvicts, admitRejects int64) {
	return t.budgetEvicts.Load(), t.admitRejects.Load()
}
