package core

import (
	"time"

	"atm/internal/hashx"
	"atm/internal/region"
	"atm/internal/taskrt"
)

// This file is the engine's out-of-band read side: callers that hold a
// task's regions but submit no task — a front-end's lookup route (Peek)
// and its inline hit path (ServeHits). Both go through peekEntry, which
// hashes on a pooled hasher and probes the table without leaving a
// trace; only a ServeHits call that serves its whole request then
// applies what the worker path (OnReady's steady hit branch) would have.

// peekEntry hashes ins at level on h and returns the table's entry for
// that key, retained for the caller, when its outputs can be copied into
// outs; nil otherwise. Nothing is counted or marked (THT.probe).
func (a *ATM) peekEntry(tt *taskrt.TaskType, ts *typeState, level int, ins, outs []region.Region, h hashx.Hasher) (*Entry, uint64) {
	key := a.hashIns(tt.ID(), ts, ins, level, h)
	e := a.tht.probe(tt.ID(), key, int8(level))
	if e != nil && !outputShapesMatch(e.Outs, outs) {
		e.Release()
		e = nil
	}
	return e, key
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

// HitTask is one task of a ServeHits request: its type and the regions a
// submitted task of that type would carry. The unexported fields are the
// call's scratch, so a caller that reuses its []HitTask serves without
// allocating; no entry is held once ServeHits has returned.
type HitTask struct {
	Type      *taskrt.TaskType
	Ins, Outs []region.Region

	ts    *typeState
	e     *Entry // the matched entry, retained between probe and commit
	key   uint64
	level int8
	// tscale is the extrapolation factor of this task's sampled timing
	// (0 = untimed), hashNanos its hash time already scaled.
	tscale    int64
	hashNanos int64
}

// ServeHits serves a whole request from the table on the caller's
// goroutine, or does nothing at all. It reports true only when every
// task is a steady-state THT hit: then each task's stored outputs have
// been copied into its Outs and the engine has recorded, per task,
// exactly what a worker's OnReady records for a memoized task — the
// table's lookup and hit counters, the admission-sketch increment of a
// budgeted table, the type's Tasks and MemoizedTHT (on the out-of-band
// stats shard, which WorkerTotals leaves out) and the sampled hash/copy
// time estimate. On the first task that is not such a hit — a miss, a
// type that is not memoizable, is still training or has an exclusion
// set, Config.VerifyInputs, an attached tracer — it releases what it
// held and reports false with Outs untouched and no counter or sketch
// cell changed: the caller then submits the request, whole, as if ServeHits
// had never been called. Types are checked before the first hash, so a
// request that can never be served inline costs no hashing.
//
// Region identity is never observed (the exclusion set, keyed by output
// region, sends its types down the false path), so callers may recycle
// region headers. Safe to call from any goroutine, concurrently with
// the runtime's workers and with snapshots.
func (a *ATM) ServeHits(tasks []HitTask) bool {
	if a.cfg.VerifyInputs || a.rt != nil && a.rt.Tracer() != nil {
		return false
	}
	for i := range tasks {
		t := &tasks[i]
		if !t.Type.Config().Memoize {
			return false
		}
		ts := a.state(t.Type)
		ph, level := ts.load()
		if ph != phaseSteady || a.cfg.Mode == ModeDynamic && ts.hasExcl.Load() {
			return false
		}
		t.ts, t.level = ts, int8(level)
	}

	h := a.probeHasher()
	held := 0
	for ; held < len(tasks); held++ {
		t := &tasks[held]
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
			break
		}
		if t.tscale != 0 {
			t.hashNanos = time.Since(h0).Nanoseconds() * t.tscale
		}
	}
	a.releaseProbe(h)

	served := held == len(tasks)
	for i := range tasks {
		t := &tasks[i]
		if served {
			a.commitHit(t)
		}
		t.e.Release() // nil-safe: nothing is held from the first miss on
		t.e = nil
	}
	return served
}

// commitHit is ServeHits' per-task commit: the hit branch of OnReady and
// the counting half of THT.Lookup, on the out-of-band shard.
func (a *ATM) commitHit(t *HitTask) {
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
