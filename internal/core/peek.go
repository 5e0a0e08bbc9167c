package core

import (
	"atm/internal/region"
	"atm/internal/taskrt"
)

// This file is the engine's out-of-band side: callers that hold a task's
// regions but submit no task — a front-end's lookup route (PeekType) and
// its handler path (Serve), on types NewType made. Both hash on a pooled
// hasher and probe the table without leaving a trace; only a Serve call
// that goes ahead then applies what the worker path (OnReady and
// OnFinished) would have.

// probeOuts is THT.probe for a task with outputs outs: an entry whose
// outputs cannot be copied into them counts as no entry.
func (a *ATM) probeOuts(ts *Type, key uint64, level int8, outs []region.Region) *Entry {
	e := a.tht.probe(ts.id, key, level)
	if e != nil && !outputShapesMatch(e.Outs, outs) {
		e.Release()
		e = nil
	}
	return e
}

// PeekType probes the THT for the outputs the engine would currently
// serve for a task of type ts with the given inputs, without submitting
// a task: on a hit the stored outputs are copied into outs (which must
// match the entry's shapes) and PeekType reports true. A lookup is a peek,
// so it is quiet: no engine or table state changes — not the table's
// lookup/hit counters, not the admission sketch — and a probed key is
// no likelier to be admitted or kept for having been looked at. Safe to
// call from any goroutine — the memoization-lookup path of a network
// front-end (GET /v1/lookup in cmd/atmd).
//
// A false return means only that no entry exists at the type's current
// p level right now; a concurrent insert may land immediately after.
func (a *ATM) PeekType(ts *Type, ins, outs []region.Region) bool {
	_, level := ts.load()
	h := a.probeHasher()
	key := a.hashIns(ts, ins, level, h)
	a.releaseProbe(h)
	e := a.probeOuts(ts, key, int8(level), outs)
	if e == nil {
		return false
	}
	for i, o := range outs {
		o.CopyFrom(e.Outs[i])
	}
	e.Release()
	return true
}

// Peek is PeekType for a type tt of the runtime bound to the engine; a
// type that is not memoizable has no entries, so it reports false.
func (a *ATM) Peek(tt *taskrt.TaskType, ins, outs []region.Region) bool {
	ts, _ := tt.MemoType().(*Type)
	return ts != nil && a.PeekType(ts, ins, outs)
}

// outOfBandProvider marks the provider ids of entries Serve inserts: a
// range disjoint from the runtime's task ids (a creation counter from
// 0), so an entry's (key, level, provider) identity — what an eviction
// tombstone names — stays unique across both insert paths. The low bits
// count the entries admission let in, from 1; the bare mark is what
// Serve hands memoize to ask for the next one.
const outOfBandProvider = 1 << 63

// ServeTask is one task of a Serve request: its type, the regions a
// submitted task of that type would carry, and its body. The unexported
// fields are the call's scratch, so a caller that reuses its
// []ServeTask serves without allocating; no entry is held once Serve has
// returned.
type ServeTask struct {
	// Type is the task's type (NewType); nil marks a task that is not
	// memoizable.
	Type      *Type
	Ins, Outs []region.Region
	// Run executes the task's body on Ins and Outs, as the type's
	// runtime body would. Serve calls it for every task it does not
	// serve from the table, with Outs as the caller left them: a body
	// that need not write every output element must clear Outs first.
	Run func(ins, outs []region.Region)

	e     *Entry // the matched entry, retained between probe and commit
	key   uint64
	level int8 // the level key was hashed at; -1 before it is
	// tscale is the task's timing decision (tscaleFor), hashNanos its
	// hash time already scaled.
	tscale    int64
	hashNanos int64
}

// Serve runs a whole request on the caller's goroutine — Fig. 1's
// ready-task protocol without the runtime — and reports the number of
// memoizable tasks whose body ran. A steady task that hits has the
// stored outputs copied into its Outs; one that misses runs its body and
// inserts its outputs as a worker's OnFinished would. A task of a type
// still training runs its body and is graded against the entry its key
// matched at the type's level, as a worker grades it, or inserts when
// none matched. A task with no Type is not memoizable: it runs its body
// and leaves nothing in the engine.
//
// Every steady task is probed first, quietly (THT.probe), holding what
// hits; every other task is a body to run. When there are bodies to run,
// admit hears their number, and if it refuses, Serve returns false with
// Outs untouched and no counter, sketch cell or table entry changed.
// That is Serve's only false return, and a request of hits alone never
// calls admit. Then, in request order, a task records exactly what a
// worker's OnReady and OnFinished record for it — the table's lookup and
// hit counters, the admission-sketch increment of a budgeted table, the
// type's Tasks, MemoizedTHT or Executed, training hits and failures and
// the level they move (on the out-of-band stats shard), and the sampled
// hash/copy time estimate. A training task is hashed only then, at the
// level its type is at: a grade since the probe, a sibling's or a
// concurrent one, may have moved it or ended training. A steady task
// that missed is probed again first, and so is every task after this
// request's first body: a sibling's insert (or a concurrent one) may
// have added its key or evicted its entry since, so a key repeated
// within one request hits its sibling, as it would on a runtime.
//
// Bodies take no IKT slot, so two concurrent identical misses may both
// run; their entries carry provider ids of their own (outOfBandProvider).
// Region identity is never observed, so callers may recycle region
// headers, and a failed grade doubles p as a worker's does. Serve does
// not trace. Safe to call from any goroutine, concurrently with a bound
// runtime's workers, delta saves and full snapshots.
func (a *ATM) Serve(tasks []ServeTask, admit func(bodies int) bool) (executed int, ok bool) {
	h := a.probeHasher()
	defer a.releaseProbe(h)
	// keyAt is the task's timing decision and its key at level: its
	// shard's count only moves at commit, so the decision reads it one
	// ahead.
	keyAt := func(t *ServeTask, level int) {
		t.tscale = tscaleFor(t.Type.shard(-1).tasks.Load() + 1)
		t.key, t.hashNanos = a.hash(t.Type, t.Ins, level, h, t.tscale)
		t.level = int8(level)
	}
	bodies := 0
	for i := range tasks {
		t := &tasks[i]
		t.e, t.level = nil, -1
		if t.Type == nil {
			bodies++
			continue
		}
		ph, level := t.Type.load()
		if ph != phaseSteady {
			bodies++
			continue
		}
		keyAt(t, level)
		if t.e = a.probeOuts(t.Type, t.key, t.level, t.Outs); t.e == nil {
			bodies++
		}
	}

	if bodies > 0 && !admit(bodies) {
		for i := range tasks {
			tasks[i].e.Release() // nil-safe
			tasks[i].e = nil
		}
		return 0, false
	}
	ran := false // a memoizable body ran, and may have inserted
	for i := range tasks {
		t := &tasks[i]
		if t.Type == nil {
			t.Run(t.Ins, t.Outs)
			continue
		}
		ph, level := t.Type.load()
		if t.level < 0 {
			keyAt(t, level) // a training task, at the level it trains at now
		}
		sh := t.Type.shard(-1)
		sh.tasks.Add(1)
		if t.tscale != 0 {
			sh.hashNanos.Add(t.hashNanos)
		}
		if ph == phaseSteady && t.e != nil && !ran {
			a.tht.noteLookup(t.key, t.e) // the probe's entry still stands
		} else {
			t.e.Release()
			t.e = a.lookup(t.Type, t.key, t.level, t.Outs)
		}
		if ph == phaseSteady && t.e != nil {
			a.hit(sh, t.e, t.Outs, t.tscale)
			t.e = nil
			continue
		}
		// A miss, or a training task, which runs whatever it matched and
		// is graded against it.
		t.Run(t.Ins, t.Outs)
		a.finish(t.Type, sh, t.Outs, t.e, outOfBandProvider, t.key, t.level, t.tscale)
		t.e = nil
		sh.executed.Add(1)
		executed++
		ran = true
	}
	return executed, true
}
