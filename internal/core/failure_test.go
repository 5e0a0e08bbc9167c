package core

import (
	"testing"

	"atm/internal/region"
	"atm/internal/sampling"
	"atm/internal/taskrt"
)

// Failure-injection tests: §III-E lists ATM's limitations — tasks that use
// undeclared state or randomness violate the determinism contract. These
// tests verify dynamic ATM's training phase contains the damage, and that
// static ATM behaves exactly as specified when misused.

// TestDynamicContainsNondeterministicTask injects a task type whose output
// depends on a hidden counter (undeclared state). Dynamic ATM's training
// phase grades its approximations, and every τ failure doubles p, so the
// type stays in training rather than serving stale outputs.
func TestDynamicContainsNondeterministicTask(t *testing.T) {
	memo := New(Config{Mode: ModeDynamic})
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo})
	defer rt.Close()

	hidden := 0.0 // undeclared state: a §III-E contract violation
	bad := rt.RegisterType(taskrt.TypeConfig{
		Name: "nondet", Memoize: true, TauMax: 0.01, LTraining: 1000,
		Run: func(task *taskrt.Task) {
			hidden += 1000
			task.Float64s(1)[0] = task.Float64s(0)[0] + hidden
		},
	})
	in := region.NewFloat64(1)
	in.Data[0] = 5
	out := region.NewFloat64(1)
	for i := 0; i < 20; i++ {
		rt.Submit(bad, taskrt.In(in), taskrt.InOut(out))
	}
	rt.Wait()

	ts := memo.Stats().Types[0]
	if ts.Steady {
		t.Fatalf("a nondeterministic type must never reach steady state: %+v", ts)
	}
	if ts.TrainingFailures == 0 || int64(ts.Level) != ts.TrainingFailures {
		t.Fatalf("every failed grade must double p once: %+v", ts)
	}
	if ts.MemoizedTHT != 0 {
		t.Fatalf("training must never serve the nondeterministic task from the THT: %+v", ts)
	}
	// All tasks executed: the program's (nondeterministic) semantics are
	// preserved even though the type was mis-annotated.
	if ts.Executed != ts.Tasks {
		t.Fatalf("accounting: %+v", ts)
	}
}

// TestStaticServesStaleForUndeclaredInput documents the §III-E limitation:
// under *static* ATM a task reading undeclared inputs is memoized on its
// declared inputs only, so it receives stale outputs. This is the
// specified (mis)behavior, not a bug — the test pins it.
func TestStaticServesStaleForUndeclaredInput(t *testing.T) {
	memo := New(Config{Mode: ModeStatic})
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo})
	defer rt.Close()

	undeclared := 1.0
	bad := rt.RegisterType(taskrt.TypeConfig{
		Name: "undeclared-read", Memoize: true,
		Run: func(task *taskrt.Task) {
			task.Float64s(1)[0] = task.Float64s(0)[0] * undeclared
		},
	})
	in := region.NewFloat64(1)
	in.Data[0] = 3
	out1, out2 := region.NewFloat64(1), region.NewFloat64(1)
	rt.Submit(bad, taskrt.In(in), taskrt.Out(out1))
	rt.Wait()
	undeclared = 2 // changes behavior invisibly to ATM
	rt.Submit(bad, taskrt.In(in), taskrt.Out(out2))
	rt.Wait()

	if out2.Data[0] != out1.Data[0] {
		t.Fatalf("static ATM must have served the memoized (stale) output, got %v vs %v",
			out2.Data[0], out1.Data[0])
	}
}

// TestExcludedTaskStillProducesFreshOutputs verifies that a type whose
// grades keep failing keeps executing its tasks normally through the rest
// of the run.
func TestExcludedTaskStillProducesFreshOutputs(t *testing.T) {
	memo := New(Config{Mode: ModeDynamic})
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo})
	defer rt.Close()

	calls := 0
	bad := rt.RegisterType(taskrt.TypeConfig{
		Name: "flappy", Memoize: true, TauMax: 0.001, LTraining: 1000,
		Run: func(task *taskrt.Task) {
			calls++
			task.Float64s(1)[0] = float64(calls)
		},
	})
	in := region.NewFloat64(1)
	out := region.NewFloat64(1)
	const n = 30
	for i := 0; i < n; i++ {
		rt.Submit(bad, taskrt.In(in), taskrt.InOut(out))
	}
	rt.Wait()
	if calls != n {
		t.Fatalf("failing task executed %d of %d times", calls, n)
	}
	if out.Data[0] != float64(n) {
		t.Fatalf("final output %v must be the freshest execution", out.Data[0])
	}
}

// TestFixedLevelsProduceDistinctKeys pins that every p level yields a
// different sampled byte set (and so a different key) on a large mixed
// input — the property Fig. 5's sweep relies on.
func TestFixedLevelsProduceDistinctKeys(t *testing.T) {
	memo := New(Config{Mode: ModeStatic})
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo})
	defer rt.Close()
	memo.BindRuntime(rt)

	var captured *taskrt.Task
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "t", Memoize: true, Run: func(task *taskrt.Task) { captured = task }})
	// Large enough that every level selects a different byte count
	// (levels only differ once ceil(N·p) does — tiny inputs legitimately
	// share keys between adjacent levels).
	in1 := region.NewFloat64(4096)
	in2 := region.NewFloat32(4096)
	for i := 0; i < 4096; i++ {
		in1.Data[i] = float64(i) * 1.1
		in2.Data[i] = float32(i) * 2.2
	}
	rt.Submit(tt, taskrt.In(in1), taskrt.In(in2), taskrt.Out(region.NewFloat64(1)))
	rt.Wait()

	seen := map[uint64]int{}
	for level := sampling.MinPLevel; level <= sampling.MaxPLevel; level++ {
		k := memo.HashKey(captured, level)
		if prev, dup := seen[k]; dup {
			t.Fatalf("levels %d and %d share key %#x", prev, level, k)
		}
		seen[k] = level
	}
}
