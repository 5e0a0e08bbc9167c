package core

import (
	"sync/atomic"
	"testing"

	"atm/internal/region"
	"atm/internal/taskrt"
)

// TestPlantedKeyIsServed states the one hit rule as behaviour: a THT
// entry whose key matches a probe's at the type's level is served — its
// outputs are copied out and the body does not run — whatever inputs
// produced it. No final check compares inputs, so a hash collision is
// served the same way; docs/hashing.md bounds that risk at ≤ 2^-49 per
// probe.
func TestPlantedKeyIsServed(t *testing.T) {
	in := region.NewFloat64(16)
	for i := range in.Data {
		in.Data[i] = float64(i)
	}

	// The probe's key and level, from a twin engine of the same config
	// that ran it once.
	twin := New(Config{Mode: ModeStatic})
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: twin})
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: doubler})
	rt.Submit(tt, taskrt.In(in), taskrt.Out(region.NewFloat64(16)))
	rt.Wait()
	rt.Close()
	var key uint64
	var level int8
	entries := 0
	twin.THT().forEach(func(e *Entry) {
		key, level = e.Key, e.Level
		entries++
	})
	if entries != 1 {
		t.Fatalf("twin table holds %d entries, want 1", entries)
	}

	memo := New(Config{Mode: ModeStatic})
	rt = taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo})
	defer rt.Close()
	var ran atomic.Int64
	tt = rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: func(task *taskrt.Task) {
		ran.Add(1)
		doubler(task)
	}})
	planted := region.NewFloat64(16)
	for i := range planted.Data {
		planted.Data[i] = -1 // not what doubling the probe's input gives
	}
	memo.THT().Insert(&Entry{TypeID: tt.ID(), Key: key, Level: level, ProviderID: 1, Outs: []region.Region{planted}})

	out := region.NewFloat64(16)
	rt.Submit(tt, taskrt.In(in), taskrt.Out(out))
	rt.Wait()
	if n := ran.Load(); n != 0 {
		t.Fatalf("body ran %d times despite an entry under the probe's key", n)
	}
	for i, v := range out.Data {
		if v != -1 {
			t.Fatalf("out[%d] = %v, want the planted -1", i, v)
		}
	}
	if ts := memo.Stats().Types[0]; ts.MemoizedTHT != 1 || ts.Executed != 0 {
		t.Fatalf("stats: %+v, want one THT hit and no execution", ts)
	}
}
