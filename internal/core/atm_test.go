package core

import (
	"math"
	"runtime"
	"testing"
	"time"

	"atm/internal/region"
	"atm/internal/sampling"
	"atm/internal/taskrt"
)

// doubler is a simple deterministic task body: out[i] = 2*in[i].
func doubler(t *taskrt.Task) {
	in, out := t.Float64s(0), t.Float64s(1)
	for i := range in {
		out[i] = 2 * in[i]
	}
}

func TestStaticATMBitExactReuse(t *testing.T) {
	memo := New(Config{Mode: ModeStatic})
	rt := taskrt.New(taskrt.Config{Workers: 2, Memoizer: memo})
	defer rt.Close()
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: doubler})

	in := region.NewFloat64(64)
	for i := range in.Data {
		in.Data[i] = float64(i) * 1.5
	}
	outs := make([]*region.Float64, 10)
	for i := range outs {
		outs[i] = region.NewFloat64(64)
		rt.Submit(tt, taskrt.In(in), taskrt.Out(outs[i]))
	}
	rt.Wait()

	for i, o := range outs {
		for j := range o.Data {
			if o.Data[j] != 2*in.Data[j] {
				t.Fatalf("task %d elem %d: %v", i, j, o.Data[j])
			}
		}
	}
	st := memo.Stats()
	ts := st.Types[0]
	if ts.MemoizedTHT+ts.MemoizedIKT == 0 {
		t.Fatal("identical tasks must be memoized")
	}
	if ts.Executed+ts.MemoizedTHT+ts.MemoizedIKT != 10 {
		t.Fatalf("task accounting: %+v", ts)
	}
}

func TestStaticATMDistinguishesDifferentInputs(t *testing.T) {
	memo := New(Config{Mode: ModeStatic})
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo})
	defer rt.Close()
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: doubler})

	for v := 0; v < 20; v++ {
		in := region.NewFloat64(8)
		for i := range in.Data {
			in.Data[i] = float64(v*100 + i)
		}
		out := region.NewFloat64(8)
		rt.Submit(tt, taskrt.In(in), taskrt.Out(out))
	}
	rt.Wait()
	ts := memo.Stats().Types[0]
	if ts.MemoizedTHT != 0 || ts.Executed != 20 {
		t.Fatalf("distinct inputs must all execute: %+v", ts)
	}
}

// msbTwin returns two 8-element float64 regions whose values share every
// byte except the lowest mantissa byte: indistinguishable to the
// type-aware sampler until p selects low-significance bytes.
func msbTwin() (*region.Float64, *region.Float64) {
	a := region.NewFloat64(8)
	b := region.NewFloat64(8)
	for i := range a.Data {
		v := 1.5 + float64(i)
		a.Data[i] = v
		b.Data[i] = math.Float64frombits(math.Float64bits(v) ^ 1)
	}
	return a, b
}

func TestFixedLowPApproximatesNearDuplicates(t *testing.T) {
	memo := New(Config{Mode: ModeFixed, FixedLevel: 0})
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo})
	defer rt.Close()
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: doubler})

	a, b := msbTwin()
	outA, outB := region.NewFloat64(8), region.NewFloat64(8)
	rt.Submit(tt, taskrt.In(a), taskrt.Out(outA))
	rt.Submit(tt, taskrt.In(b), taskrt.Out(outB))
	rt.Wait()

	ts := memo.Stats().Types[0]
	if ts.MemoizedTHT != 1 {
		t.Fatalf("near-duplicate must hit at p=2^-15: %+v", ts)
	}
	// The memoized task's outputs are the provider's, bit for bit.
	if !outB.EqualContents(outA) {
		t.Fatal("approximate hit must copy the stored outputs")
	}
}

func TestFixedFullPSeparatesNearDuplicates(t *testing.T) {
	memo := New(Config{Mode: ModeFixed, FixedLevel: sampling.MaxPLevel})
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo})
	defer rt.Close()
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: doubler})

	a, b := msbTwin()
	outA, outB := region.NewFloat64(8), region.NewFloat64(8)
	rt.Submit(tt, taskrt.In(a), taskrt.Out(outA))
	rt.Submit(tt, taskrt.In(b), taskrt.Out(outB))
	rt.Wait()
	if memo.Stats().Types[0].MemoizedTHT != 0 {
		t.Fatal("p=100% must distinguish the twins")
	}
	if outB.EqualContents(outA) {
		t.Fatal("outputs must differ at full precision")
	}
}

// amplify makes low-mantissa input differences huge in the output, so a
// low-p approximation of msbTwin inputs violates any τmax.
func amplify(t *taskrt.Task) {
	in, out := t.Float64s(0), t.Float64s(1)
	for i := range in {
		out[i] = (in[i] - 1.5 - float64(i)) * 1e12
	}
}

func TestDynamicTrainingBumpsLevelOnFailure(t *testing.T) {
	memo := New(Config{Mode: ModeDynamic})
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo})
	defer rt.Close()
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "amp", Memoize: true, TauMax: 0.01, LTraining: 1000, Run: amplify})

	a, b := msbTwin()
	for i := 0; i < 6; i++ {
		in := a
		if i%2 == 1 {
			in = b
		}
		rt.Submit(tt, taskrt.In(in), taskrt.Out(region.NewFloat64(8)))
	}
	rt.Wait()

	level, steady := memo.ChosenLevel(tt)
	if steady {
		t.Fatal("must still be training (Ltraining=1000)")
	}
	if level == 0 {
		t.Fatal("τ failures must double p")
	}
	ts := memo.Stats().Types[0]
	if ts.TrainingFailures == 0 || ts.Executed != 6 {
		t.Fatalf("training must execute and grade: %+v", ts)
	}
}

func TestDynamicReachesSteadyAndMemoizes(t *testing.T) {
	memo := New(Config{Mode: ModeDynamic})
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo})
	defer rt.Close()
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, TauMax: 0.01, LTraining: 3, Run: doubler})

	in := region.NewFloat64(16)
	for i := range in.Data {
		in.Data[i] = float64(i)
	}
	for i := 0; i < 10; i++ {
		rt.Submit(tt, taskrt.In(in), taskrt.Out(region.NewFloat64(16)))
	}
	rt.Wait()

	ts := memo.Stats().Types[0]
	if !ts.Steady {
		t.Fatalf("identical tasks must finish training quickly: %+v", ts)
	}
	if ts.MemoizedTHT == 0 {
		t.Fatal("steady state must memoize")
	}
	// Training tasks all executed: 1 miss + 3 graded hits; the remaining
	// 6 are steady-state hits.
	if ts.Executed != 4 || ts.MemoizedTHT != 6 {
		t.Fatalf("phase accounting: %+v", ts)
	}
}

func TestIKTDefersInFlightDuplicates(t *testing.T) {
	memo := New(Config{Mode: ModeStatic})
	rt := taskrt.New(taskrt.Config{Workers: 2, Memoizer: memo})
	defer rt.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	first := true
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "slow", Memoize: true, Run: func(task *taskrt.Task) {
		if first {
			first = false
			close(started)
			<-release
		}
		out := task.Float64s(1)
		out[0] = task.Float64s(0)[0] * 3
	}})

	in := region.NewFloat64(1)
	in.Data[0] = 14
	outA, outB := region.NewFloat64(1), region.NewFloat64(1)
	rt.Submit(tt, taskrt.In(in), taskrt.Out(outA))
	<-started // provider is in flight, IKT entry registered
	rt.Submit(tt, taskrt.In(in), taskrt.Out(outB))
	// Wait until the waiter is parked in the IKT.
	for {
		_, defers, _ := memo.IKT().Counters()
		if defers == 1 {
			break
		}
		runtime.Gosched()
	}
	close(release)
	rt.Wait()

	if outA.Data[0] != 42 || outB.Data[0] != 42 {
		t.Fatalf("outputs: %v %v", outA.Data[0], outB.Data[0])
	}
	ts := memo.Stats().Types[0]
	if ts.MemoizedIKT != 1 || ts.Executed != 1 {
		t.Fatalf("IKT accounting: %+v", ts)
	}
}

func TestDisableIKT(t *testing.T) {
	memo := New(Config{Mode: ModeStatic, DisableIKT: true})
	rt := taskrt.New(taskrt.Config{Workers: 2, Memoizer: memo})
	defer rt.Close()
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "t", Memoize: true, Run: doubler})
	in := region.NewFloat64(4)
	for i := 0; i < 6; i++ {
		rt.Submit(tt, taskrt.In(in), taskrt.Out(region.NewFloat64(4)))
	}
	rt.Wait()
	if _, defers, _ := memo.IKT().Counters(); defers != 0 {
		t.Fatal("IKT must stay unused when disabled")
	}
}

func TestHashKeyLevelAndLayoutSeparation(t *testing.T) {
	memo := New(Config{Mode: ModeStatic})
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo})
	defer rt.Close()
	memo.BindRuntime(rt)

	var captured *taskrt.Task
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "t", Memoize: true, Run: func(task *taskrt.Task) { captured = task }})
	in := region.NewFloat64(32)
	for i := range in.Data {
		in.Data[i] = float64(i) * 0.25
	}
	rt.Submit(tt, taskrt.In(in), taskrt.Out(region.NewFloat64(1)))
	rt.Wait()

	k15a := memo.HashKey(captured, 15)
	k15b := memo.HashKey(captured, 15)
	if k15a != k15b {
		t.Fatal("hash keys must be deterministic")
	}
	k0 := memo.HashKey(captured, 0)
	if k0 == k15a {
		t.Fatal("different p levels should give different keys")
	}

	// Mutating a sampled byte changes the key at p=100%.
	in.Data[7] += 1
	if memo.HashKey(captured, 15) == k15a {
		t.Fatal("input changes must change the full-p key")
	}
}

func TestOutputShapesMatch(t *testing.T) {
	a := []region.Region{region.NewFloat64(3), region.NewInt32(2)}
	b := []region.Region{region.NewFloat64(3), region.NewInt32(2)}
	if !outputShapesMatch(a, b) {
		t.Fatal("equal shapes must match")
	}
	c := []region.Region{region.NewFloat64(3), region.NewInt32(3)}
	if outputShapesMatch(a, c) {
		t.Fatal("length mismatch")
	}
	d := []region.Region{region.NewFloat64(3), region.NewFloat32(2)}
	if outputShapesMatch(a, d) {
		t.Fatal("kind mismatch")
	}
	if outputShapesMatch(a, a[:1]) {
		t.Fatal("arity mismatch")
	}
}

func TestConfigDefaults(t *testing.T) {
	a := New(Config{})
	cfg := a.Config()
	if cfg.NBits != 8 || cfg.M != 128 {
		t.Fatalf("defaults: %+v (paper sizing is N=8, M=128)", cfg)
	}
	b := New(Config{Mode: ModeFixed, FixedLevel: 99})
	if b.Config().FixedLevel != sampling.MaxPLevel {
		t.Fatal("fixed level must clamp")
	}
}

func TestModeStrings(t *testing.T) {
	if ModeStatic.String() != "static" || ModeDynamic.String() != "dynamic" || ModeFixed.String() != "fixed-p" {
		t.Fatal("mode names")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode must render")
	}
}

func TestStatsSnapshotFields(t *testing.T) {
	memo := New(Config{Mode: ModeStatic})
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo})
	defer rt.Close()
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "named", Memoize: true, Run: doubler})
	in := region.NewFloat64(4)
	for i := 0; i < 3; i++ {
		rt.Submit(tt, taskrt.In(in), taskrt.Out(region.NewFloat64(4)))
	}
	rt.Wait()
	st := memo.Stats()
	if len(st.Types) != 1 || st.Types[0].Name != "named" {
		t.Fatalf("stats types: %+v", st.Types)
	}
	ts := st.Types[0]
	if ts.Tasks != 3 || ts.P != 1 || !ts.Steady || ts.Level != 15 {
		t.Fatalf("static type stats: %+v", ts)
	}
	if ts.Reuse() <= 0 {
		t.Fatal("reuse must be positive")
	}
	if st.THTEntries == 0 || st.THTBytes == 0 || st.THTLookups == 0 {
		t.Fatalf("THT counters: %+v", st)
	}
	if memo.MemoryBytes() != st.THTBytes {
		t.Fatal("MemoryBytes must mirror the THT")
	}
}

func TestTrainingHitRefreshesStaleEntry(t *testing.T) {
	// After a failed training grade, the THT must hold the fresh outputs
	// for that key so later comparisons grade against current data.
	memo := New(Config{Mode: ModeDynamic})
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo})
	defer rt.Close()
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "amp", Memoize: true, TauMax: 0.01, LTraining: 1000, Run: amplify})

	a, b := msbTwin()
	rt.Submit(tt, taskrt.In(a), taskrt.Out(region.NewFloat64(8)))
	rt.Submit(tt, taskrt.In(b), taskrt.Out(region.NewFloat64(8)))
	rt.Wait()
	ts := memo.Stats().Types[0]
	if ts.TrainingFailures != 1 {
		t.Fatalf("expected exactly one graded failure: %+v", ts)
	}
	if memo.THT().Entries() < 2 {
		t.Fatal("failed grade must insert the fresh outputs")
	}
}

func TestATMHashCopyTimersAdvance(t *testing.T) {
	memo := New(Config{Mode: ModeStatic})
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo})
	defer rt.Close()
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "t", Memoize: true, Run: doubler})
	in := region.NewFloat64(4096)
	for i := 0; i < 4; i++ {
		rt.Submit(tt, taskrt.In(in), taskrt.Out(region.NewFloat64(4096)))
	}
	rt.Wait()
	ts := memo.Stats().Types[0]
	if ts.HashTime <= 0 || ts.CopyTime <= 0 {
		t.Fatalf("overhead timers must advance: hash=%v copy=%v", ts.HashTime, ts.CopyTime)
	}
	if ts.HashTime > time.Minute || ts.CopyTime > time.Minute {
		t.Fatal("implausible timer values")
	}
}

// TestShapeMismatchedEntryIsAMiss pins one lookup rule for both drivers:
// an entry whose outputs cannot be copied into the task's is no entry,
// so the lookup counts as a miss and the task runs and inserts. A worker
// (OnReady) and a handler (Serve) record the same counters for it.
func TestShapeMismatchedEntryIsAMiss(t *testing.T) {
	in := mkInput(1)
	run := func(ins, outs []region.Region) {
		src, dst := ins[0].(*region.Float64).Data, outs[0].(*region.Float64).Data
		for i := range dst {
			dst[i] = 2 * src[i]
		}
	}
	check := func(driver string, memo *ATM) {
		t.Helper()
		st := memo.Stats()
		ts := st.Types[0]
		if st.THTLookups != 2 || st.THTHits != 0 || ts.Executed != 2 || ts.MemoizedTHT != 0 {
			t.Fatalf("%s: lookups %d, hits %d, executed %d, memoTHT %d; want 2, 0, 2, 0",
				driver, st.THTLookups, st.THTHits, ts.Executed, ts.MemoizedTHT)
		}
	}

	worker := New(Config{Mode: ModeStatic, DisableIKT: true})
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: worker})
	defer rt.Close()
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: func(task *taskrt.Task) {
		run(task.Inputs(), task.Outputs())
	}})
	for _, n := range []int{16, 8} {
		rt.Submit(tt, taskrt.In(in), taskrt.Out(region.NewFloat64(n)))
		rt.Wait()
	}
	check("worker", worker)

	handler := New(Config{Mode: ModeStatic})
	ty := handler.NewType("double")
	for _, n := range []int{16, 8} {
		tasks := []ServeTask{{Type: ty, Ins: []region.Region{in}, Outs: []region.Region{region.NewFloat64(n)}, Run: run}}
		if _, ok := handler.Serve(tasks, func(int) bool { return true }); !ok {
			t.Fatal("Serve refused with an admit that accepts")
		}
	}
	check("handler", handler)
}
