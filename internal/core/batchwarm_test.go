package core

import (
	"testing"

	"atm/internal/region"
	"atm/internal/sampling"
	"atm/internal/taskrt"
)

// TestOnBatchSubmittedWarmsEngineState pins the BatchObserver integration:
// a batch submitted through SubmitBatch must leave the memoizable types'
// shuffle plans built (below p = 100%) before any worker consults them,
// so the first OnReady of a new layout finds its plan by an atomic load.
// The types' state itself is made at registration (BindType): a
// memoizable type carries it, a plain one has none.
func TestOnBatchSubmittedWarmsEngineState(t *testing.T) {
	a := New(Config{Mode: ModeDynamic})
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: a})
	defer rt.Close()

	gate := make(chan struct{})
	hold := rt.RegisterType(taskrt.TypeConfig{Name: "hold", Run: func(*taskrt.Task) { <-gate }})
	memo := rt.RegisterType(taskrt.TypeConfig{Name: "memo", Memoize: true, Run: func(*taskrt.Task) {}})
	plain := rt.RegisterType(taskrt.TypeConfig{Name: "plain", Run: func(*taskrt.Task) {}})

	// Hold the lone worker so nothing of the batch reaches OnReady: the
	// state observed afterwards can only come from OnBatchSubmitted.
	rt.Submit(hold, taskrt.Out(region.NewFloat64(1)))

	in, out := region.NewFloat64(64), region.NewFloat64(64)
	rt.SubmitBatch([]taskrt.BatchEntry{
		taskrt.Desc(memo, taskrt.In(in), taskrt.Out(out)),
		taskrt.Desc(plain, taskrt.Out(region.NewFloat64(1))),
	})

	ts, _ := memo.MemoType().(*Type)
	if ts == nil {
		t.Fatal("memoizable type has no state after registration")
	} else if plain.MemoType() != nil {
		t.Fatal("non-memoizable type must not get engine state")
	}
	if m := ts.plans.Load(); m == nil || (*m)[sampling.SignatureOf([]region.Region{in})] == nil {
		t.Fatal("shuffle plan not pre-built for the batch's input layout")
	}

	close(gate)
	rt.Wait()
}
