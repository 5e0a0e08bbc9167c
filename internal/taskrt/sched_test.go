package taskrt

import (
	"runtime"
	"sync/atomic"
	"testing"

	"atm/internal/region"
)

// Stress and semantics tests for the work-stealing scheduler. Run with
// -race: they are written to maximize submit/steal/complete interleaving.

// TestSubmitStorm floods the runtime with independent tasks from the
// master while many workers drain them concurrently (injector + stealing
// under contention, with the submission throttle engaging).
func TestSubmitStorm(t *testing.T) {
	const n = 20000
	rt := New(Config{Workers: 8})
	defer rt.Close()
	var ran atomic.Int64
	regions := make([]*region.Int32, 64)
	for i := range regions {
		regions[i] = region.NewInt32(1)
	}
	tt := rt.RegisterType(TypeConfig{Name: "storm", Run: func(task *Task) {
		ran.Add(1)
	}})
	for i := 0; i < n; i++ {
		// Mostly independent tasks (64 distinct regions): ready at submit.
		rt.Submit(tt, In(regions[i%64]), Out(region.NewFloat64(1)))
	}
	rt.Wait()
	if ran.Load() != n {
		t.Fatalf("ran %d of %d", ran.Load(), n)
	}
}

// TestStealHeavyDAG builds wide fan-out/fan-in diamonds so completions
// ready many successors on one worker's deque and the rest must steal.
func TestStealHeavyDAG(t *testing.T) {
	rt := New(Config{Workers: 8, Policy: PolicyLIFO})
	defer rt.Close()
	var ran atomic.Int64
	body := func(task *Task) {
		ran.Add(1)
		// Write the task's last access: it is the writable one in every
		// shape this test submits (source InOut, branch In+InOut, fan-in
		// In...In+InOut).
		d := task.Float64s(len(task.Accesses()) - 1)
		d[0]++
	}
	tt := rt.RegisterType(TypeConfig{Name: "node", Run: body})
	total := 0
	for round := 0; round < 50; round++ {
		src := region.NewFloat64(1)
		rt.Submit(tt, InOut(src)) // source
		total++
		// Fan-out: 32 readers of src, each with its own output.
		outs := make([]*region.Float64, 32)
		for i := range outs {
			outs[i] = region.NewFloat64(1)
			rt.Submit(tt, In(src), InOut(outs[i]))
			total++
		}
		// Fan-in: one task reading every branch output.
		accs := make([]Access, 0, len(outs)+1)
		for _, o := range outs {
			accs = append(accs, In(o))
		}
		sink := region.NewFloat64(1)
		accs = append(accs, InOut(sink))
		rt.Submit(tt, accs...)
		total++
	}
	rt.Wait()
	if int(ran.Load()) != total {
		t.Fatalf("ran %d of %d", ran.Load(), total)
	}
}

// TestWorkerGeneratedTasksAreStolen pins the steal path specifically: one
// long chain executes on (at most) one worker, while its side fan-out
// must be picked up by thieves for the run to finish quickly; correctness
// here is that every task runs exactly once under -race.
func TestWorkerGeneratedTasksAreStolen(t *testing.T) {
	rt := New(Config{Workers: 4})
	defer rt.Close()
	var ran atomic.Int64
	work := rt.RegisterType(TypeConfig{Name: "w", Run: func(task *Task) {
		ran.Add(1)
		for i := 0; i < 100; i++ {
			runtime.Gosched()
		}
	}})
	chainR := region.NewFloat64(1)
	chain := rt.RegisterType(TypeConfig{Name: "chain", Run: func(task *Task) { ran.Add(1) }})
	prevOuts := []*region.Float64{}
	for i := 0; i < 200; i++ {
		rt.Submit(chain, InOut(chainR))
		o := region.NewFloat64(1)
		prevOuts = append(prevOuts, o)
		// Side task depends on the chain region read-only: readied by the
		// chain task's completion on the chain's worker, then stolen.
		rt.Submit(work, In(chainR), Out(o))
	}
	rt.Wait()
	if ran.Load() != 400 {
		t.Fatalf("ran %d of 400", ran.Load())
	}
	_ = prevOuts
}

// TestFIFOOrderSingleWorker pins the old centralized queue's FIFO
// semantics for master-submitted independent tasks on one worker.
func TestFIFOOrderSingleWorker(t *testing.T) {
	rt := New(Config{Workers: 1, Policy: PolicyFIFO})
	defer rt.Close()
	var order []int
	started := make(chan struct{})
	gate := make(chan struct{})
	hold := rt.RegisterType(TypeConfig{Name: "hold", Run: func(*Task) {
		close(started)
		<-gate
	}})
	rec := rt.RegisterType(TypeConfig{Name: "rec", Run: func(task *Task) {
		order = append(order, int(task.ID()))
	}})
	rt.Submit(hold, Out(region.NewFloat64(1)))
	<-started
	for i := 0; i < 6; i++ {
		rt.Submit(rec, Out(region.NewFloat64(1)))
	}
	close(gate)
	rt.Wait()
	want := []int{1, 2, 3, 4, 5, 6}
	if len(order) != len(want) {
		t.Fatalf("order=%v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("FIFO order=%v want %v", order, want)
		}
	}
}

// TestLIFOEquivalenceSingleWorker cross-checks the deque-based LIFO
// against the old queue's newest-first semantics with interleaved
// dependent tasks.
func TestLIFOEquivalenceSingleWorker(t *testing.T) {
	rt := New(Config{Workers: 1, Policy: PolicyLIFO})
	defer rt.Close()
	var order []int
	started := make(chan struct{})
	gate := make(chan struct{})
	hold := rt.RegisterType(TypeConfig{Name: "hold", Run: func(*Task) {
		close(started)
		<-gate
	}})
	rec := rt.RegisterType(TypeConfig{Name: "rec", Run: func(task *Task) {
		order = append(order, int(task.ID()))
	}})
	rt.Submit(hold, Out(region.NewFloat64(1)))
	<-started
	for i := 0; i < 5; i++ {
		rt.Submit(rec, Out(region.NewFloat64(1)))
	}
	close(gate)
	rt.Wait()
	want := []int{5, 4, 3, 2, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("LIFO order=%v want %v", order, want)
		}
	}
}

// TestThrottleReleasesAndCompletes drives far more than the throttle
// window of dependent tasks through a single worker so the submission
// throttle engages and releases repeatedly. A fixed window pins the
// watermark (the adaptive one would grow past these tiny tasks).
func TestThrottleReleasesAndCompletes(t *testing.T) {
	const window = 512
	rt := New(Config{Workers: 1, ThrottleWindow: window})
	defer rt.Close()
	a := region.NewInt32(1)
	tt := rt.RegisterType(TypeConfig{Name: "inc", Run: func(task *Task) {
		task.Int32s(0)[0]++
	}})
	const n = 6 * window
	for i := 0; i < n; i++ {
		rt.Submit(tt, InOut(a))
	}
	rt.Wait()
	if a.Data[0] != n {
		t.Fatalf("chain under throttle: %d of %d", a.Data[0], n)
	}
}

// TestManyWaitCycles alternates tiny phases with Wait barriers to stress
// the split submitted/completed accounting and its wakeup protocol.
func TestManyWaitCycles(t *testing.T) {
	rt := New(Config{Workers: 4})
	defer rt.Close()
	r := region.NewInt32(1)
	tt := rt.RegisterType(TypeConfig{Name: "inc", Run: func(task *Task) {
		task.Int32s(0)[0]++
	}})
	for phase := 0; phase < 500; phase++ {
		rt.Submit(tt, InOut(r))
		rt.Wait()
		if got := r.Data[0]; got != int32(phase+1) {
			t.Fatalf("phase %d: %d", phase, got)
		}
	}
}
