package taskrt

import "atm/internal/trace"

// Batched task submission. A per-task Submit pays, for every task, a
// throttle check, a submission-counter atomic, an injector lock and a
// wake attempt — and every dependence edge costs a CAS or a lock, even
// when both endpoints were created microseconds apart by the same master
// thread. The paper's workloads submit tasks in regular loop nests
// (SparseLU's k-loops, the stencils' block sweeps, Blackscholes' block
// loop), so consecutive tasks overwhelmingly depend on each other:
// SubmitBatch exploits that by carving a whole slice of task descriptors
// at once, resolving intra-batch edges with plain memory operations (the
// master owns both endpoints until the batch is published), and
// publishing all initially-ready tasks as one block push with a single
// wake — the batched-submission amortization of runtimes like Nanos++.

// BatchEntry describes one task of a SubmitBatch batch: a task type plus
// its accesses. Build entries with Desc; entries with at most two
// accesses store them inline, so a reused batch slice submits without
// per-entry allocations. A BatchEntry is consumed by SubmitBatch
// (descriptors with spilled access lists hand them to the task) and must
// be rebuilt with Desc before reuse.
type BatchEntry struct {
	typ  *TaskType
	nacc int8 // -1: accesses live in ext
	acc  [2]Access
	ext  []Access
}

// fill (re)initializes e in place. It is the single construction path
// shared by Desc and Batcher.Add; e may be a reused buffer slot whose
// previous occupant was consumed (ext is then already nil).
func (e *BatchEntry) fill(tt *TaskType, accesses []Access) {
	e.typ = tt
	if len(accesses) <= len(e.acc) {
		e.nacc = int8(copy(e.acc[:], accesses))
		e.ext = nil
		return
	}
	e.nacc = -1
	e.ext = make([]Access, len(accesses))
	copy(e.ext, accesses)
}

// Desc builds a batch entry for one task of type tt with the given
// accesses. Up to two accesses are stored inline (no allocation); longer
// access lists are copied to a spill slice that the submitted task later
// adopts.
func Desc(tt *TaskType, accesses ...Access) BatchEntry {
	var e BatchEntry
	e.fill(tt, accesses)
	return e
}

// Type returns the entry's task type.
func (e *BatchEntry) Type() *TaskType { return e.typ }

// take returns the entry's access list and whether the caller may adopt
// it without copying (the spilled case: Desc allocated it exclusively
// for this entry). It panics on a consumed entry, the reuse-after-submit
// programming error.
func (e *BatchEntry) take() (accs []Access, owned bool) {
	if e.nacc >= 0 {
		return e.acc[:e.nacc], false
	}
	if e.ext == nil {
		panic("taskrt: BatchEntry resubmitted after SubmitBatch consumed it")
	}
	accs, e.ext = e.ext, nil
	return accs, true
}

// SubmitBatch creates one task per batch entry, in order, with the same
// dependence semantics as the equivalent sequence of Submit calls, and
// returns the created tasks. The master-side cost is amortized across
// the batch: tasks are carved from slabs in one pass; dependence edges
// between two tasks of the same batch are wired with plain memory
// operations (no atomics — the master owns both endpoints until the
// batch publishes); cross-batch edges use the lock-free CAS path; all
// initially-ready tasks are published to the injector as block pushes
// followed by a single wake sized to the number of tasks pushed; and the
// submission throttle is consulted once per batch rather than per task.
//
// Like Submit, SubmitBatch must be called by the one submitter (see
// Submit). The returned slice is carved from a pointer slab owned by
// the runtime; the tasks it points to live in recyclable slabs, so the
// pointers are valid until the first submission after a completion
// fence (Wait/Fence) — after that the cells may be reset and re-carved
// into unrelated tasks. Consume task results between the Wait and the
// next submission. Batch entries are consumed (see BatchEntry); the
// entries slice itself may be reused after rebuilding its entries with
// Desc.
func (rt *Runtime) SubmitBatch(batch []BatchEntry) []*Task {
	return rt.submitBatch(batch, nil)
}

// taskPtrSlabSize sizes the pointer slab backing SubmitBatch results.
const taskPtrSlabSize = 512

// submitBatch implements SubmitBatch, appending the created tasks to dst
// (carved from the runtime's pointer slab when dst is nil).
func (rt *Runtime) submitBatch(batch []BatchEntry, dst []*Task) []*Task {
	if rt.closed.Load() {
		panic("taskrt: SubmitBatch after Close")
	}
	n := len(batch)
	if n == 0 {
		return dst
	}
	rt.consumeFence()
	rt.throttle() // once per batch; a batch is an atomic submission unit
	if rt.tracer != nil {
		rt.tracer.SetState(rt.tracer.MasterLane(), trace.StateCreate)
	}
	if dst == nil {
		if n > len(rt.ptrSlab)-rt.ptrOff {
			// Park the used part of the replaced slab for scrubbing at the
			// next fence; its result slices may still be live until then.
			if rt.ptrOff > 0 {
				rt.oldPtrSlabs = append(rt.oldPtrSlabs, rt.ptrSlab[:rt.ptrOff])
			}
			size := taskPtrSlabSize
			if n > size {
				size = n
			}
			rt.ptrSlab = make([]*Task, size)
			rt.ptrOff = 0
		}
		dst = rt.ptrSlab[rt.ptrOff : rt.ptrOff : rt.ptrOff+n]
		rt.ptrOff += n
	}
	first := len(dst)

	// Pass 1: carve and wire each task while it is cache-hot. Wiring
	// only ever looks backwards, so every predecessor — intra-batch or
	// older — is already carved when its successor wires; intra-batch
	// edges (id >= startID) are plain appends, and only cross-batch
	// edges install the npred guard and take the CAS path. Per-task
	// predecessor counts accumulate in a reused scratch so no npred
	// atomics happen until pass 3.
	counts := rt.batchNpred
	if cap(counts) < n {
		counts = make([]int32, n)
	}
	counts = counts[:n]
	startID := rt.nextID
	for i := range batch {
		e := &batch[i]
		accs, owned := e.take()
		var t *Task
		if owned {
			t = rt.carveOwned(e.typ, accs)
		} else {
			t = rt.carve(e.typ, accs)
		}
		dst = append(dst, t)
		counts[i] = rt.wire(t, startID)
		if rt.det != nil {
			// Yield point: cross-batch predecessors may complete while the
			// batch is half-carved — the window the npred guard protects.
			rt.det.maybeYield()
		}
		rt.notePayload(t) // internally sampled, 1 in 8
		if rt.tracer != nil {
			rt.tracer.TaskCreated()
		}
	}
	tasks := dst[first:]
	rt.submitted.Add(int64(n))

	// The batch observer (ATM) runs strictly between wiring and
	// publication: every guard is still in place, so no task of the
	// batch can be scheduled — or even readied by a racing cross-batch
	// completion — until the observer returns.
	if rt.batchObs != nil {
		if rt.det != nil {
			rt.det.maybeYield() // completions may land just before the observer
		}
		rt.batchObs.OnBatchSubmitted(tasks)
	}

	// Pass 3 publishes predecessor counts in two phases. The moment a
	// guarded task's guard drops (3b), a racing cross-batch completion
	// can ready it, a worker can run it, and its completion then
	// decrements in-batch successors — so every successor's plain count
	// must already be installed. Phase 3a therefore stores all unguarded
	// counts (such tasks have no cross-batch edges: nothing can touch
	// their npred until this batch itself starts running) before phase
	// 3b drops any guard.
	ready := rt.batchReady[:0]
	for i, t := range tasks {
		if t.npred.Load() != 0 {
			continue // guard installed: phase 3b
		}
		if counts[i] == 0 {
			ready = append(ready, t)
		} else {
			t.npred.Store(counts[i])
		}
		counts[i] = -1 // consumed
	}
	if rt.det != nil {
		// Yield point between phases 3a and 3b: guarded tasks' cross-batch
		// predecessors may complete here, decrementing npred while the
		// guard is still installed.
		rt.det.maybeYield()
	}
	for i, t := range tasks {
		if counts[i] < 0 {
			continue
		}
		if t.npred.Add(counts[i]-npredGuard) == 0 {
			ready = append(ready, t)
		}
	}
	rt.batchNpred = counts[:0]

	// Pass 4: one block publish + one wake for the whole batch.
	rt.publishBlock(ready)
	for i := range ready {
		ready[i] = nil // scratch must not pin completed tasks' slabs
	}
	rt.batchReady = ready[:0]
	if rt.det != nil {
		rt.det.maybeYield() // workers may start the batch before Submit returns
	}

	if rt.tracer != nil {
		rt.tracer.SetState(rt.tracer.MasterLane(), trace.StateOther)
	}
	return dst
}

// Batcher accumulates task descriptors and submits them through
// SubmitBatch in fixed-size batches, reusing its buffers so a steady
// submission loop allocates nothing for tasks with at most two accesses.
//
// A Batcher holds undelivered descriptors: call Flush before every
// Wait, and before any point where previously submitted tasks' results
// are consulted.
type Batcher struct {
	rt      *Runtime
	size    int
	entries []BatchEntry
	tasks   []*Task
}

// Batcher returns a new Batcher of DefaultBatch tasks per batch. Like
// Submit, it must be used only by the one submitter.
func (rt *Runtime) Batcher() *Batcher {
	return rt.BatcherN(DefaultBatch)
}

// BatcherN returns a new Batcher with an explicit batch size (at
// least 1).
func (rt *Runtime) BatcherN(size int) *Batcher {
	size = max(size, 1)
	return &Batcher{rt: rt, size: size, entries: make([]BatchEntry, 0, size)}
}

// Add appends one task descriptor, submitting the accumulated batch when
// it reaches the configured size. The entry is built in place in the
// batch buffer (no intermediate BatchEntry copy).
func (b *Batcher) Add(tt *TaskType, accesses ...Access) {
	n := len(b.entries)
	if n == cap(b.entries) {
		b.entries = append(b.entries, BatchEntry{})
	} else {
		b.entries = b.entries[:n+1]
	}
	b.entries[n].fill(tt, accesses)
	if len(b.entries) >= b.size {
		b.Flush()
	}
}

// Flush submits any accumulated descriptors as one batch. The reused
// buffers retain stale references until the next flush overwrites them —
// at most one batch's tasks (and their slabs) and the regions of one
// batch's entries stay reachable a flush longer than strictly needed, a
// deliberately bounded trade for a scrub-free steady state.
func (b *Batcher) Flush() {
	if len(b.entries) == 0 {
		return
	}
	b.tasks = b.rt.submitBatch(b.entries, b.tasks[:0])
	b.entries = b.entries[:0]
}
