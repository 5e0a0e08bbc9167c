package taskrt

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"atm/internal/region"
)

// TestSubmitBatchIntraBatchDependences pins RAW/WAW/WAR ordering when
// every edge lives inside one batch (the no-atomics wiring path).
func TestSubmitBatchIntraBatchDependences(t *testing.T) {
	rt := New(Config{Workers: 4})
	defer rt.Close()
	a, b, c := region.NewFloat64(1), region.NewFloat64(1), region.NewFloat64(1)
	set := rt.RegisterType(TypeConfig{Name: "set", Run: func(task *Task) {
		task.Float64s(0)[0] = 7
	}})
	double := rt.RegisterType(TypeConfig{Name: "double", Run: func(task *Task) {
		task.Float64s(1)[0] = task.Float64s(0)[0] * 2
	}})
	addBoth := rt.RegisterType(TypeConfig{Name: "add", Run: func(task *Task) {
		task.Float64s(2)[0] = task.Float64s(0)[0] + task.Float64s(1)[0]
	}})
	tasks := rt.SubmitBatch([]BatchEntry{
		Desc(set, Out(a)),                     // a = 7
		Desc(double, In(a), Out(b)),           // b = 14 (RAW on a)
		Desc(addBoth, In(a), In(b), InOut(c)), // c = 21 (fan-in)
		Desc(set, Out(c)),                     // c = 7 (WAR on c, then WAW)
	})
	rt.Wait()
	if len(tasks) != 4 {
		t.Fatalf("returned %d tasks", len(tasks))
	}
	if a.Data[0] != 7 || b.Data[0] != 14 || c.Data[0] != 7 {
		t.Fatalf("a=%v b=%v c=%v", a.Data[0], b.Data[0], c.Data[0])
	}
	for i := 1; i < len(tasks); i++ {
		if tasks[i].ID() != tasks[i-1].ID()+1 {
			t.Fatalf("batch ids not creation-ordered: %d after %d", tasks[i].ID(), tasks[i-1].ID())
		}
	}
}

// TestSubmitBatchCrossBatchDependences chains regions across batches and
// interleaves per-task Submit calls, so the CAS path and the intra-batch
// path wire edges into the same tasks.
func TestSubmitBatchCrossBatchDependences(t *testing.T) {
	rt := New(Config{Workers: 4})
	defer rt.Close()
	a := region.NewInt32(1)
	inc := rt.RegisterType(TypeConfig{Name: "inc", Run: func(task *Task) {
		task.Int32s(0)[0]++
	}})
	batch := make([]BatchEntry, 0, 8)
	total := 0
	for round := 0; round < 50; round++ {
		batch = batch[:0]
		for i := 0; i < 8; i++ {
			batch = append(batch, Desc(inc, InOut(a)))
		}
		rt.SubmitBatch(batch)
		rt.Submit(inc, InOut(a)) // interleaved per-task submission
		total += 9
	}
	rt.Wait()
	if got := a.Data[0]; got != int32(total) {
		t.Fatalf("WAW chain across batches broke: %d of %d", got, total)
	}
}

// TestSubmittersTakeTurnsUnderMutex: the one-submitter contract is about
// overlap, not goroutine identity. Four goroutines take turns under a
// mutex, each turn a SubmitBatch, a Submit, a Wait that consumes the
// returned tasks, and on every other turn a Reset — the way a service
// runs one request's tasks per turn. Dependences chain within a turn and,
// between Resets, across turns on a shared region; slabs recycle across
// goroutines (far more tasks than one slab). Run with -race.
func TestSubmittersTakeTurnsUnderMutex(t *testing.T) {
	rt := New(Config{Workers: 2})
	defer rt.Close()
	shared := region.NewInt32(1)
	inc := rt.RegisterType(TypeConfig{Name: "inc", Run: func(task *Task) {
		task.Int32s(0)[0]++
	}})
	double := rt.RegisterType(TypeConfig{Name: "double", Run: func(task *Task) {
		task.Float64s(1)[0] = 2 * task.Float64s(0)[0]
	}})
	var mu sync.Mutex
	var turns int
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([]BatchEntry, 0, 9)
			for i := 0; i < 50; i++ {
				in, out := region.NewFloat64(1), region.NewFloat64(1)
				in.Data[0] = float64(g*1000 + i)
				mu.Lock()
				batch = batch[:0]
				for j := 0; j < 8; j++ {
					batch = append(batch, Desc(inc, InOut(shared)))
				}
				batch = append(batch, Desc(double, In(in), Out(out)))
				tasks := rt.SubmitBatch(batch)
				last := rt.Submit(inc, InOut(shared))
				rt.Wait()
				turns++
				ids := make([]uint64, 0, len(tasks)+1)
				for _, task := range append(tasks, last) {
					ids = append(ids, task.ID())
				}
				if rt.Completed() != rt.Submitted() || shared.Data[0] != int32(9*turns) || out.Data[0] != 2*in.Data[0] {
					t.Errorf("goroutine %d, turn %d: shared = %d (want %d), out = %v (want %v)",
						g, i, shared.Data[0], 9*turns, out.Data[0], 2*in.Data[0])
				}
				for j := 1; j < len(ids); j++ {
					if ids[j] != ids[j-1]+1 {
						t.Errorf("goroutine %d, turn %d: task ids %v not consecutive", g, i, ids)
						break
					}
				}
				if i%2 == 1 {
					rt.Reset()
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if want := int32(9 * 4 * 50); shared.Data[0] != want {
		t.Fatalf("shared = %d, want %d", shared.Data[0], want)
	}
}

// TestSubmitBatchEdgeCases covers the empty batch, the 1-entry batch and
// a batch larger than the task slab.
func TestSubmitBatchEdgeCases(t *testing.T) {
	rt := New(Config{Workers: 2})
	defer rt.Close()
	if got := rt.SubmitBatch(nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d tasks", len(got))
	}
	r := region.NewInt32(1)
	inc := rt.RegisterType(TypeConfig{Name: "inc", Run: func(task *Task) {
		task.Int32s(0)[0]++
	}})
	if got := rt.SubmitBatch([]BatchEntry{Desc(inc, InOut(r))}); len(got) != 1 {
		t.Fatalf("1-entry batch returned %d tasks", len(got))
	}
	big := make([]BatchEntry, 3*taskSlabSize+5)
	for i := range big {
		big[i] = Desc(inc, InOut(r))
	}
	if got := rt.SubmitBatch(big); len(got) != len(big) {
		t.Fatalf("big batch returned %d of %d tasks", len(got), len(big))
	}
	rt.Wait()
	if want := int32(1 + len(big)); r.Data[0] != want {
		t.Fatalf("chain: %d of %d", r.Data[0], want)
	}
}

// TestBatchEntryReusePanics pins the consumed-descriptor guard: an entry
// whose spilled access list was adopted by a task must not be
// resubmittable.
func TestBatchEntryReusePanics(t *testing.T) {
	rt := New(Config{Workers: 1})
	defer rt.Close()
	a, b, c := region.NewFloat64(1), region.NewFloat64(1), region.NewFloat64(1)
	tt := rt.RegisterType(TypeConfig{Name: "t", Run: func(*Task) {}})
	batch := []BatchEntry{Desc(tt, In(a), In(b), Out(c))} // 3 accesses: spilled
	rt.SubmitBatch(batch)
	rt.Wait()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on resubmitting a consumed spilled entry")
		}
	}()
	rt.SubmitBatch(batch)
}

// TestSubmitBatchPriorities checks that block publication preserves the
// priority discipline: the highest-priority ready task of a batch runs
// first.
func TestSubmitBatchPriorities(t *testing.T) {
	rt := New(Config{Workers: 1})
	defer rt.Close()
	var order []string
	gate := make(chan struct{})
	hold := rt.RegisterType(TypeConfig{Name: "hold", Run: func(*Task) { <-gate }})
	lo := rt.RegisterType(TypeConfig{Name: "lo", Priority: 1, Run: func(*Task) { order = append(order, "lo") }})
	hi := rt.RegisterType(TypeConfig{Name: "hi", Priority: 9, Run: func(*Task) { order = append(order, "hi") }})
	rt.Submit(hold, Out(region.NewFloat64(1)))
	rt.SubmitBatch([]BatchEntry{
		Desc(lo, Out(region.NewFloat64(1))),
		Desc(hi, Out(region.NewFloat64(1))),
		Desc(lo, Out(region.NewFloat64(1))),
	})
	close(gate)
	rt.Wait()
	if len(order) != 3 || order[0] != "hi" {
		t.Fatalf("priority violated through batch publish: %v", order)
	}
}

// TestQuickBatchedDataflowMatchesSerial is the batched twin of
// TestQuickDataflowMatchesSerial: any random access program, chopped into
// random batch sizes (including interleaved per-task Submits), must equal
// serial execution.
func TestQuickBatchedDataflowMatchesSerial(t *testing.T) {
	f := func(ops []op, workers, batchSeed uint8) bool {
		if len(ops) > 80 {
			ops = ops[:80]
		}
		const nregs = 6
		serial := make([]float64, nregs)
		for i := range serial {
			serial[i] = float64(i + 1)
		}
		par := make([]*region.Float64, nregs)
		for i := range par {
			par[i] = region.NewFloat64(1)
			par[i].Data[0] = float64(i + 1)
		}
		w := int(workers%8) + 1
		rt := newRT(w)
		defer rt.Close()
		apply := rt.RegisterType(TypeConfig{Name: "apply", Run: func(task *Task) {
			k := task.Int32s(2)[0]
			dst, src := task.Float64s(0), task.Float64s(1)
			switch k {
			case 0:
				dst[0] += src[0]
			case 1:
				dst[0] = src[0]
			default:
				dst[0] = dst[0]*0.5 + src[0]
			}
		}})
		kinds := make([]*region.Int32, 3)
		for i := range kinds {
			kinds[i] = region.NewInt32(1)
			kinds[i].Data[0] = int32(i)
		}
		var batch []BatchEntry
		bs := uint64(batchSeed)
		nextSplit := func() int { // deterministic pseudo-random 0..7
			bs = bs*6364136223846793005 + 1442695040888963407
			return int(bs >> 61)
		}
		split := nextSplit()
		for _, o := range ops {
			dst := int(o.Dst % nregs)
			src := int(o.A % nregs)
			if dst == src {
				src = (src + 1) % nregs
			}
			k := int(o.Kind % 3)
			switch k {
			case 0:
				serial[dst] += serial[src]
			case 1:
				serial[dst] = serial[src]
			default:
				serial[dst] = serial[dst]*0.5 + serial[src]
			}
			if split == 0 {
				// Interleave a direct Submit between batches.
				rt.Submit(apply, InOut(par[dst]), In(par[src]), In(kinds[k]))
				split = nextSplit()
				continue
			}
			batch = append(batch, Desc(apply, InOut(par[dst]), In(par[src]), In(kinds[k])))
			if len(batch) >= split {
				rt.SubmitBatch(batch)
				batch = batch[:0]
				split = nextSplit()
			}
		}
		if len(batch) > 0 {
			rt.SubmitBatch(batch)
		}
		rt.Wait()
		for i := range serial {
			if par[i].Data[0] != serial[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitBatchAllocs pins the batched master path at ≤1 allocation per
// batch for ≤2-access tasks: the returned []*Task (itself carved from a
// pointer slab) plus the amortized 64-task slab stay under one
// allocation per 16-task batch.
func TestSubmitBatchAllocs(t *testing.T) {
	rt := New(Config{Workers: 2})
	defer rt.Close()
	tt := rt.RegisterType(TypeConfig{Name: "noop", Run: func(*Task) {}})
	regions := make([]*region.Float64, 16)
	for i := range regions {
		regions[i] = region.NewFloat64(4)
	}
	batch := make([]BatchEntry, 16)
	fill := func() {
		for i := range batch {
			batch[i] = Desc(tt, InOut(regions[i]))
		}
	}
	fill()
	rt.SubmitBatch(batch) // warm the registry and scratch buffers
	rt.Wait()
	allocs := testing.AllocsPerRun(100, func() {
		fill()
		rt.SubmitBatch(batch)
		rt.Wait()
	})
	if allocs > 1 {
		t.Fatalf("SubmitBatch allocates %.2f per 16-task batch, want ≤ 1", allocs)
	}
}

// TestBatcherDegradesToSubmit pins the size-1 batcher: it submits every
// Add at once, like per-task Submit, and never buffers.
func TestBatcherDegradesToSubmit(t *testing.T) {
	rt := New(Config{Workers: 2})
	defer rt.Close()
	a := region.NewInt32(1)
	inc := rt.RegisterType(TypeConfig{Name: "inc", Run: func(task *Task) {
		task.Int32s(0)[0]++
	}})
	sb := rt.BatcherN(1)
	for i := 0; i < 100; i++ {
		sb.Add(inc, InOut(a))
	}
	// No Flush: a batch of one must have submitted everything already.
	rt.Wait()
	if a.Data[0] != 100 {
		t.Fatalf("per-task batcher ran %d of 100", a.Data[0])
	}
}

// TestBatcherFlushBoundaries drives a batcher whose adds never align with
// its batch size, ensuring partial flushes deliver every task.
func TestBatcherFlushBoundaries(t *testing.T) {
	rt := New(Config{Workers: 4})
	defer rt.Close()
	a := region.NewInt32(1)
	inc := rt.RegisterType(TypeConfig{Name: "inc", Run: func(task *Task) {
		task.Int32s(0)[0]++
	}})
	sb := rt.BatcherN(7)
	const n = 100 // not a multiple of 7
	for i := 0; i < n; i++ {
		sb.Add(inc, InOut(a))
	}
	sb.Flush()
	rt.Wait()
	if a.Data[0] != n {
		t.Fatalf("batcher delivered %d of %d", a.Data[0], n)
	}
	sb.Flush() // idempotent on empty
	rt.Wait()
}

// batchStressMemoizer defers every 5th memoizable task and completes the
// deferred set whenever a provider finishes — CompleteExternal firing
// concurrently with SubmitBatch wiring, the race the npred guard and the
// publication ordering must survive.
type batchStressMemoizer struct {
	mu       sync.Mutex
	rt       *Runtime
	n        int
	inflight int
	deferred []*Task
}

func (m *batchStressMemoizer) BindRuntime(rt *Runtime) { m.rt = rt }

func (m *batchStressMemoizer) OnReady(t *Task, worker int) Outcome {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.n++
	// Defer only while a provider is executing (the IKT's contract):
	// that provider's OnFinished — which collects the deferred list
	// under the same lock — has not run yet, so every deferred task is
	// guaranteed a completer and Wait cannot hang.
	if m.n%5 == 0 && m.inflight > 0 {
		m.deferred = append(m.deferred, t)
		return OutcomeDeferred
	}
	m.inflight++
	return OutcomeRun
}

func (m *batchStressMemoizer) OnFinished(t *Task, worker int) {
	m.mu.Lock()
	m.inflight--
	serve := m.deferred
	m.deferred = nil
	m.mu.Unlock()
	for _, d := range serve {
		d.Outputs()[0].(*region.Float64).Data[0] = 1
		m.rt.CompleteExternal(d)
	}
}

// TestBatchSubmitStress interleaves Submit, SubmitBatch, prioritized
// types and CompleteExternal under -race: every dependence flavor (intra-
// batch, cross-batch, cross-to-running) wires while workers complete,
// steal and externally finish tasks.
func TestBatchSubmitStress(t *testing.T) {
	m := &batchStressMemoizer{}
	rt := New(Config{Workers: 8, Memoizer: m, ThrottleWindow: 512})
	defer rt.Close()
	var ran atomic.Int64
	shared := make([]*region.Float64, 16)
	for i := range shared {
		shared[i] = region.NewFloat64(1)
	}
	work := rt.RegisterType(TypeConfig{Name: "work", Memoize: true, Run: func(task *Task) {
		ran.Add(1)
		task.Outputs()[0].(*region.Float64).Data[0] = 1
	}})
	prio := rt.RegisterType(TypeConfig{Name: "prio", Priority: 3, Run: func(task *Task) {
		ran.Add(1)
	}})
	plain := rt.RegisterType(TypeConfig{Name: "plain", Run: func(task *Task) {
		ran.Add(1)
	}})

	batch := make([]BatchEntry, 0, 32)
	submitted := 0
	for round := 0; round < 300; round++ {
		batch = batch[:0]
		for i := 0; i < 16; i++ {
			// Chains through the shared regions create cross-batch edges
			// to possibly-running tasks; neighbors in the batch create
			// intra-batch edges.
			s := shared[(round+i)%len(shared)]
			batch = append(batch, Desc(work, In(s), Out(region.NewFloat64(1))))
			batch = append(batch, Desc(plain, InOut(s)))
		}
		rt.SubmitBatch(batch)
		submitted += len(batch)
		rt.Submit(prio, InOut(shared[round%len(shared)]))
		submitted++
		if round%50 == 49 {
			rt.Wait()
		}
	}
	rt.Wait()
	m.mu.Lock()
	deferredLeft := len(m.deferred)
	m.mu.Unlock()
	if deferredLeft != 0 {
		t.Fatalf("%d deferred tasks never completed", deferredLeft)
	}
	// Every task either ran or was deferred-and-served; Wait returning
	// proves completion, ran counts the executed subset.
	if ran.Load() == 0 || ran.Load() > int64(submitted) {
		t.Fatalf("ran=%d submitted=%d", ran.Load(), submitted)
	}
}

// batchObserverProbe records OnBatchSubmitted invocations and fails the
// ordering contract if any task of a batch reaches OnReady before its
// batch was observed.
type batchObserverProbe struct {
	mu       sync.Mutex
	batches  [][]uint64
	observed map[uint64]bool
	early    atomic.Int64
}

func (m *batchObserverProbe) OnBatchSubmitted(tasks []*Task) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]uint64, len(tasks))
	for i, t := range tasks {
		ids[i] = t.ID()
		m.observed[t.ID()] = true
	}
	m.batches = append(m.batches, ids)
}

func (m *batchObserverProbe) OnReady(t *Task, worker int) Outcome {
	m.mu.Lock()
	ok := m.observed[t.ID()]
	m.mu.Unlock()
	if !ok {
		m.early.Add(1)
	}
	return OutcomeRun
}

func (m *batchObserverProbe) OnFinished(t *Task, worker int) {}

// TestBatchObserverOrdering pins the BatchObserver contract: called once
// per batch, with every task of the batch, strictly before any of those
// tasks' OnReady.
func TestBatchObserverOrdering(t *testing.T) {
	m := &batchObserverProbe{observed: make(map[uint64]bool)}
	rt := New(Config{Workers: 4, Memoizer: m})
	defer rt.Close()
	r := region.NewFloat64(1)
	tt := rt.RegisterType(TypeConfig{Name: "t", Memoize: true, Run: func(*Task) {}})
	for round := 0; round < 20; round++ {
		batch := make([]BatchEntry, 8)
		for i := range batch {
			// Mix an intra-batch chain with independent tasks.
			if i%2 == 0 {
				batch[i] = Desc(tt, InOut(r))
			} else {
				batch[i] = Desc(tt, Out(region.NewFloat64(1)))
			}
		}
		rt.SubmitBatch(batch)
	}
	rt.Wait()
	if m.early.Load() != 0 {
		t.Fatalf("%d tasks reached OnReady before their batch was observed", m.early.Load())
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.batches) != 20 {
		t.Fatalf("observer called %d times for 20 batches", len(m.batches))
	}
	for _, ids := range m.batches {
		if len(ids) != 8 {
			t.Fatalf("observer saw %d of 8 tasks", len(ids))
		}
	}
}

// TestSubmitBatchChainHammer regression-tests the pass-3 finalize race:
// with parallel WAW chains spanning many batches, a cross-batch
// predecessor completing mid-finalize could ready, run and complete an
// earlier batch task — decrementing an in-batch successor whose plain
// count was not yet installed, losing the decrement and hanging Wait.
// High batch turnover over few chains maximizes that window.
func TestSubmitBatchChainHammer(t *testing.T) {
	rt := New(Config{Workers: 8, ThrottleWindow: 1 << 20})
	defer rt.Close()
	const (
		nchains = 4
		batches = 3000
		perB    = 32
	)
	chains := make([]*region.Int32, nchains)
	for i := range chains {
		chains[i] = region.NewInt32(1)
	}
	inc := rt.RegisterType(TypeConfig{Name: "inc", Run: func(task *Task) {
		task.Int32s(0)[0]++
	}})
	batch := make([]BatchEntry, 0, perB)
	for b := 0; b < batches; b++ {
		batch = batch[:0]
		for i := 0; i < perB; i++ {
			batch = append(batch, Desc(inc, InOut(chains[(b*perB+i)%nchains])))
		}
		rt.SubmitBatch(batch)
	}
	rt.Wait()
	want := int32(batches * perB / nchains)
	for i, c := range chains {
		if c.Data[0] != want {
			t.Fatalf("chain %d: %d of %d increments", i, c.Data[0], want)
		}
	}
}

// TestAdaptiveThrottleWatermark checks the EWMA-driven window: large task
// payloads must shrink it toward the floor, tiny payloads must raise it
// toward the cap, and a fixed window must never move.
func TestAdaptiveThrottleWatermark(t *testing.T) {
	run := func(elems, n int, window int) int {
		rt := New(Config{Workers: 2, ThrottleWindow: window})
		defer rt.Close()
		tt := rt.RegisterType(TypeConfig{Name: "t", Run: func(*Task) {}})
		r := region.NewFloat64(elems)
		for i := 0; i < n; i++ {
			rt.Submit(tt, InOut(r))
		}
		rt.Wait()
		return rt.BacklogLimit()
	}
	const n = 4 * 8 * watermarkRefresh // 1-in-8 payload sampling
	big := run(1<<20, n, 0)            // 8 MiB payload per task
	if big >= defaultBacklog {
		t.Fatalf("8 MiB tasks should shrink the watermark below %d, got %d", defaultBacklog, big)
	}
	small := run(1, n, 0) // 8 B payload per task
	if small <= defaultBacklog {
		t.Fatalf("tiny tasks should raise the watermark above %d, got %d", defaultBacklog, small)
	}
	if small > maxBacklogCap {
		t.Fatalf("watermark exceeded cap: %d", small)
	}
	if fixed := run(1<<20, n, 777); fixed != 777 {
		t.Fatalf("fixed window moved: %d", fixed)
	}
	if big >= small {
		t.Fatalf("watermark not payload-sensitive: big=%d small=%d", big, small)
	}
}
