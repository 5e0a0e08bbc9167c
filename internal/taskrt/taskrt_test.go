package taskrt

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"atm/internal/region"
	"atm/internal/trace"
)

func newRT(workers int) *Runtime { return New(Config{Workers: workers}) }

func TestSingleTaskRuns(t *testing.T) {
	rt := newRT(2)
	defer rt.Close()
	out := region.NewFloat64(1)
	tt := rt.RegisterType(TypeConfig{Name: "set", Run: func(task *Task) {
		task.Float64s(0)[0] = 42
	}})
	rt.Submit(tt, Out(out))
	rt.Wait()
	if out.Data[0] != 42 {
		t.Fatalf("got %v", out.Data[0])
	}
}

func TestRAWOrdering(t *testing.T) {
	rt := newRT(4)
	defer rt.Close()
	a := region.NewFloat64(1)
	b := region.NewFloat64(1)
	w := rt.RegisterType(TypeConfig{Name: "w", Run: func(task *Task) {
		task.Float64s(0)[0] = 7
	}})
	r := rt.RegisterType(TypeConfig{Name: "r", Run: func(task *Task) {
		task.Float64s(1)[0] = task.Float64s(0)[0] * 2
	}})
	rt.Submit(w, Out(a))
	rt.Submit(r, In(a), Out(b))
	rt.Wait()
	if b.Data[0] != 14 {
		t.Fatalf("RAW violated: got %v", b.Data[0])
	}
}

func TestWAWChain(t *testing.T) {
	rt := newRT(8)
	defer rt.Close()
	a := region.NewInt32(1)
	var tt *TaskType
	tt = rt.RegisterType(TypeConfig{Name: "inc", Run: func(task *Task) {
		task.Int32s(0)[0]++
	}})
	for i := 0; i < 100; i++ {
		rt.Submit(tt, InOut(a))
	}
	rt.Wait()
	if a.Data[0] != 100 {
		t.Fatalf("WAW chain broke: got %d", a.Data[0])
	}
	_ = tt
}

func TestWAROrdering(t *testing.T) {
	// A reader submitted before a writer must observe the pre-write
	// value even if the writer could otherwise run first.
	rt := newRT(8)
	defer rt.Close()
	src := region.NewFloat64(1)
	src.Data[0] = 1
	snapshots := region.NewFloat64(64)
	read := rt.RegisterType(TypeConfig{Name: "read", Run: func(task *Task) {
		i := int(task.Float64s(1)[0])
		task.Float64s(2)[i] = task.Float64s(0)[0]
	}})
	write := rt.RegisterType(TypeConfig{Name: "write", Run: func(task *Task) {
		task.Float64s(0)[0]++
	}})
	idx := make([]*region.Float64, 64)
	for i := range idx {
		idx[i] = region.NewFloat64(1)
		idx[i].Data[0] = float64(i)
	}
	for i := 0; i < 64; i++ {
		rt.Submit(read, In(src), In(idx[i]), InOut(snapshots))
		rt.Submit(write, InOut(src))
	}
	rt.Wait()
	for i := 0; i < 64; i++ {
		if snapshots.Data[i] != float64(i+1) {
			t.Fatalf("reader %d saw %v want %v (WAR violated)", i, snapshots.Data[i], i+1)
		}
	}
}

func TestIndependentTasksRunConcurrently(t *testing.T) {
	rt := newRT(4)
	defer rt.Close()
	var cur, max atomic.Int32
	gate := make(chan struct{})
	tt := rt.RegisterType(TypeConfig{Name: "spin", Run: func(task *Task) {
		c := cur.Add(1)
		for {
			m := max.Load()
			if c <= m || max.CompareAndSwap(m, c) {
				break
			}
		}
		<-gate
		cur.Add(-1)
	}})
	regions := make([]*region.Float64, 4)
	for i := range regions {
		regions[i] = region.NewFloat64(1)
		rt.Submit(tt, Out(regions[i]))
	}
	// Release the tasks only after all four are parked in the body: with
	// four workers and four independent ready tasks, every task must
	// eventually start without any finishing first.
	go func() {
		for cur.Load() != 4 {
			runtime.Gosched()
		}
		for i := 0; i < 4; i++ {
			gate <- struct{}{}
		}
	}()
	rt.Wait()
	if max.Load() < 2 {
		t.Fatalf("independent tasks never overlapped (max concurrency %d)", max.Load())
	}
}

func TestWaitBetweenPhases(t *testing.T) {
	rt := newRT(4)
	defer rt.Close()
	a := region.NewFloat64(1)
	add := rt.RegisterType(TypeConfig{Name: "add", Run: func(task *Task) {
		task.Float64s(0)[0]++
	}})
	for phase := 0; phase < 5; phase++ {
		for i := 0; i < 10; i++ {
			rt.Submit(add, InOut(a))
		}
		rt.Wait()
		if a.Data[0] != float64((phase+1)*10) {
			t.Fatalf("phase %d: %v", phase, a.Data[0])
		}
	}
}

// serialModel executes the same access program sequentially to predict the
// final region contents.
type op struct {
	Kind   uint8 // 0 add, 1 copy, 2 scale
	Dst, A uint8
}

func TestQuickDataflowMatchesSerial(t *testing.T) {
	// Any random program of read/write tasks must produce the same final
	// state under the parallel runtime as under serial execution,
	// because the TDG encodes sequential (program-order) semantics.
	f := func(ops []op, workers uint8) bool {
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
			rt.Submit(apply, InOut(par[dst]), In(par[src]), In(kinds[k]))
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

func TestTaskAccessPartition(t *testing.T) {
	rt := newRT(1)
	defer rt.Close()
	a, b, c := region.NewFloat64(1), region.NewFloat64(1), region.NewFloat64(1)
	var task *Task
	tt := rt.RegisterType(TypeConfig{Name: "t", Run: func(t *Task) { task = t }})
	rt.Submit(tt, In(a), Out(b), InOut(c))
	rt.Wait()
	if len(task.Inputs()) != 2 || task.Inputs()[0] != region.Region(a) || task.Inputs()[1] != region.Region(c) {
		t.Fatalf("inputs=%v", task.Inputs())
	}
	if len(task.Outputs()) != 2 || task.Outputs()[0] != region.Region(b) || task.Outputs()[1] != region.Region(c) {
		t.Fatalf("outputs=%v", task.Outputs())
	}
	if task.Region(0) != region.Region(a) || len(task.Accesses()) != 3 {
		t.Fatal("accessors broken")
	}
}

func TestTaskIDsAreCreationOrdered(t *testing.T) {
	rt := newRT(2)
	defer rt.Close()
	r := region.NewFloat64(1)
	tt := rt.RegisterType(TypeConfig{Name: "t", Run: func(*Task) {}})
	var ids []uint64
	for i := 0; i < 5; i++ {
		ids = append(ids, rt.Submit(tt, InOut(r)).ID())
	}
	rt.Wait()
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1]+1 {
			t.Fatalf("ids not sequential: %v", ids)
		}
	}
}

// recordingMemoizer exercises the Memoizer protocol.
type recordingMemoizer struct {
	mu        sync.Mutex
	rt        *Runtime
	ready     int
	finished  int
	skipEvery int // every Nth task is OutcomeMemoized
	deferODD  bool
	deferred  []*Task
}

func (m *recordingMemoizer) BindRuntime(rt *Runtime) { m.rt = rt }

func (m *recordingMemoizer) OnReady(t *Task, worker int) Outcome {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ready++
	if m.deferODD && t.ID() < 4 {
		m.deferred = append(m.deferred, t)
		return OutcomeDeferred
	}
	if m.skipEvery > 0 && m.ready%m.skipEvery == 0 {
		t.Outputs()[0].(*region.Float64).Data[0] = -1 // memoized value
		return OutcomeMemoized
	}
	return OutcomeRun
}

func (m *recordingMemoizer) OnFinished(t *Task, worker int) {
	m.mu.Lock()
	m.finished++
	var serve []*Task
	serve, m.deferred = m.deferred, nil
	m.mu.Unlock()
	for _, d := range serve {
		d.Outputs()[0].(*region.Float64).Data[0] = -2
		m.rt.CompleteExternal(d)
	}
}

func TestMemoizerSkip(t *testing.T) {
	m := &recordingMemoizer{skipEvery: 2}
	rt := New(Config{Workers: 2, Memoizer: m})
	defer rt.Close()
	outs := make([]*region.Float64, 10)
	ran := region.NewInt32(1)
	tt := rt.RegisterType(TypeConfig{Name: "t", Memoize: true, Run: func(task *Task) {
		task.Outputs()[0].(*region.Float64).Data[0] = 1
	}})
	for i := range outs {
		outs[i] = region.NewFloat64(1)
		rt.Submit(tt, In(ran), Out(outs[i]))
	}
	rt.Wait()
	var memoized, executed int
	for _, o := range outs {
		switch o.Data[0] {
		case -1:
			memoized++
		case 1:
			executed++
		}
	}
	if memoized == 0 || executed == 0 || memoized+executed != 10 {
		t.Fatalf("memoized=%d executed=%d", memoized, executed)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ready != 10 {
		t.Fatalf("OnReady calls=%d", m.ready)
	}
	if m.finished != executed {
		t.Fatalf("OnFinished calls=%d want %d (only executed tasks)", m.finished, executed)
	}
}

func TestMemoizerNotConsultedForNonMemoizableTypes(t *testing.T) {
	m := &recordingMemoizer{}
	rt := New(Config{Workers: 2, Memoizer: m})
	defer rt.Close()
	r := region.NewFloat64(1)
	tt := rt.RegisterType(TypeConfig{Name: "plain", Run: func(*Task) {}})
	rt.Submit(tt, InOut(r))
	rt.Wait()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ready != 0 || m.finished != 0 {
		t.Fatal("non-memoizable type must bypass the memoizer")
	}
}

func TestMemoizerDeferredCompletion(t *testing.T) {
	// The first four tasks are deferred; later tasks serve them via
	// CompleteExternal when they finish. A single worker drains the FIFO
	// queue in order, so all defers are registered before any provider
	// runs. Wait must still terminate, and the deferred tasks'
	// successors must observe the provided outputs.
	m := &recordingMemoizer{deferODD: true}
	rt := New(Config{Workers: 1, Memoizer: m})
	defer rt.Close()
	outs := make([]*region.Float64, 8)
	sink := region.NewFloat64(8)
	tt := rt.RegisterType(TypeConfig{Name: "t", Memoize: true, Run: func(task *Task) {
		task.Outputs()[0].(*region.Float64).Data[0] = 1
	}})
	collect := rt.RegisterType(TypeConfig{Name: "collect", Run: func(task *Task) {
		for j := 0; j < 8; j++ {
			task.Float64s(8)[j] = task.Float64s(j)[0]
		}
	}})
	for i := range outs {
		outs[i] = region.NewFloat64(1)
		rt.Submit(tt, Out(outs[i]))
	}
	accs := make([]Access, 0, 9)
	for i := range outs {
		accs = append(accs, In(outs[i]))
	}
	accs = append(accs, Out(sink))
	rt.Submit(collect, accs...)
	rt.Wait()
	for i, v := range sink.Data {
		if v != 1 && v != -2 {
			t.Fatalf("slot %d = %v; deferred task output never provided", i, v)
		}
	}
}

func TestTracerLanesDriven(t *testing.T) {
	tr := trace.New(2, false)
	rt := New(Config{Workers: 2, Tracer: tr})
	r := region.NewFloat64(1)
	tt := rt.RegisterType(TypeConfig{Name: "t", Run: func(*Task) {}})
	for i := 0; i < 10; i++ {
		rt.Submit(tt, InOut(r))
	}
	rt.Wait()
	rt.Close()
	if tr.Created() != 10 {
		t.Fatalf("created=%d", tr.Created())
	}
	durs := tr.Durations()
	var exec int64
	for w := 0; w < 2; w++ {
		exec += int64(durs[w][trace.StateExec])
	}
	if exec == 0 {
		t.Fatal("workers never recorded exec state")
	}
}

func TestSubmitAfterClosePanics(t *testing.T) {
	rt := newRT(1)
	r := region.NewFloat64(1)
	tt := rt.RegisterType(TypeConfig{Name: "t", Run: func(*Task) {}})
	rt.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Submit after Close")
		}
	}()
	rt.Submit(tt, InOut(r))
}

func TestModeStrings(t *testing.T) {
	if ModeIn.String() != "in" || ModeOut.String() != "out" || ModeInOut.String() != "inout" {
		t.Fatal("mode names")
	}
	if AccessMode(9).String() == "" {
		t.Fatal("unknown mode must still render")
	}
}

func TestTypeDefaults(t *testing.T) {
	rt := newRT(1)
	defer rt.Close()
	tt := rt.RegisterType(TypeConfig{Name: "d", Run: func(*Task) {}})
	if tt.TauMax() != 0.01 {
		t.Fatalf("default τmax=%v", tt.TauMax())
	}
	if tt.LTraining() != 15 {
		t.Fatalf("default Ltraining=%v", tt.LTraining())
	}
	tt2 := rt.RegisterType(TypeConfig{Name: "c", Run: func(*Task) {}, TauMax: 0.2, LTraining: 100})
	if tt2.TauMax() != 0.2 || tt2.LTraining() != 100 {
		t.Fatal("configured values must win")
	}
	if tt.ID() == tt2.ID() {
		t.Fatal("type ids must be distinct")
	}
	if tt2.Name() != "c" || tt2.Config().LTraining != 100 {
		t.Fatal("accessors")
	}
}

func TestLIFOPolicyOrder(t *testing.T) {
	// One worker, depth-first policy: independent tasks submitted while
	// the worker is busy run newest-first.
	rt := New(Config{Workers: 1, Policy: PolicyLIFO})
	defer rt.Close()
	var order []int
	started := make(chan struct{})
	gate := make(chan struct{})
	hold := rt.RegisterType(TypeConfig{Name: "hold", Run: func(*Task) {
		close(started)
		<-gate // hold the worker until all tasks are queued
	}})
	tt := rt.RegisterType(TypeConfig{Name: "rec", Run: func(task *Task) {
		order = append(order, int(task.ID()))
	}})
	rt.Submit(hold, Out(region.NewFloat64(1)))
	<-started
	regions := make([]*region.Float64, 5)
	for i := range regions {
		regions[i] = region.NewFloat64(1)
		rt.Submit(tt, Out(regions[i]))
	}
	close(gate)
	rt.Wait()
	// Tasks 1..5 were queued while the worker was held; LIFO runs them
	// newest-first.
	want := []int{5, 4, 3, 2, 1}
	if len(order) != len(want) {
		t.Fatalf("order=%v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("LIFO order=%v want %v", order, want)
		}
	}
}

func TestPolicyStrings(t *testing.T) {
	if PolicyFIFO.String() != "fifo" || PolicyLIFO.String() != "lifo" {
		t.Fatal("policy names")
	}
}

func TestLIFOPreservesDependences(t *testing.T) {
	// The policy must never override dataflow: a WAW chain still runs in
	// program order under LIFO.
	rt := New(Config{Workers: 4, Policy: PolicyLIFO})
	defer rt.Close()
	a := region.NewInt32(1)
	tt := rt.RegisterType(TypeConfig{Name: "inc", Run: func(task *Task) {
		task.Int32s(0)[0]++
	}})
	for i := 0; i < 200; i++ {
		rt.Submit(tt, InOut(a))
	}
	rt.Wait()
	if a.Data[0] != 200 {
		t.Fatalf("LIFO broke the WAW chain: %d", a.Data[0])
	}
}

// typeBindingMemoizer is a Memoizer that is also a TypeBinder.
type typeBindingMemoizer struct {
	recordingMemoizer
	bound []string
}

func (m *typeBindingMemoizer) BindType(tt *TaskType) any {
	m.bound = append(m.bound, tt.Name())
	return len(m.bound)
}

// TestRegisterTypeBindsMemoizeTypes: RegisterType asks a TypeBinder
// memoizer for each Memoize type's state, before returning the type,
// and the type carries it; a plain type is not bound.
func TestRegisterTypeBindsMemoizeTypes(t *testing.T) {
	m := &typeBindingMemoizer{}
	rt := New(Config{Workers: 1, Memoizer: m})
	defer rt.Close()
	memo := rt.RegisterType(TypeConfig{Name: "memo", Memoize: true, Run: func(*Task) {}})
	plain := rt.RegisterType(TypeConfig{Name: "plain", Run: func(*Task) {}})
	if len(m.bound) != 1 || m.bound[0] != "memo" {
		t.Fatalf("BindType saw %v, want only the Memoize type", m.bound)
	}
	if memo.MemoType() != 1 || plain.MemoType() != nil {
		t.Fatalf("MemoType: memo %v, plain %v; want 1 and nil", memo.MemoType(), plain.MemoType())
	}
}
