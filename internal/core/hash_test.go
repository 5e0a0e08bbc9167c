package core

import (
	"errors"
	"testing"

	"atm/internal/region"
	"atm/internal/taskrt"
)

// TestFingerprintPinned pins Fingerprint to values recorded while the
// key hash was still selectable, so every snapshot and chain written
// under the default hash keeps loading. A snapshot stamped with the
// fingerprint the same config had under either of the two deleted
// alternative key hashes must still be refused with the typed
// config-mismatch error.
func TestFingerprintPinned(t *testing.T) {
	for _, c := range []struct {
		cfg  Config
		want uint64
	}{
		{Config{Mode: ModeStatic, Seed: 42}, 0x0bd930a8984aae09},
		{Config{Mode: ModeDynamic}, 0x6527fd4bbbe26b0a},
	} {
		if got := Fingerprint(c.cfg); got != c.want {
			t.Errorf("Fingerprint(%+v) = %#016x, want %#016x", c.cfg, got, c.want)
		}
	}

	cfg := Config{Mode: ModeStatic, Seed: 42}
	for _, foreign := range []uint64{0x9c4708f0c043a501, 0xf8d96917a22da502} {
		cold := New(cfg)
		rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: cold})
		tt := rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: doubler})
		rt.Submit(tt, taskrt.In(mkInput(1)), taskrt.Out(region.NewFloat64(16)))
		rt.Wait()
		snap, err := cold.Snapshot()
		rt.Close()
		if err != nil {
			t.Fatal(err)
		}
		snap.Fingerprint = foreign
		if warm, err := Restore(cfg, snap); warm != nil || !errors.Is(err, ErrSnapshotConfig) {
			t.Fatalf("restore of a %#016x snapshot: got (%v, %v), want ErrSnapshotConfig", foreign, warm, err)
		}
	}
}

// TestEngineUnderEachHash runs the full memoize-snapshot-restore cycle
// under the key hash: hits must be served, outputs must match the
// executed run, and a warm restart must serve every task from the
// restored THT.
func TestEngineUnderEachHash(t *testing.T) {
	cold := New(Config{Mode: ModeStatic})
	// One worker: with two, a repeat can miss the THT just before
	// its provider publishes and find the IKT just after the
	// provider left it, and then runs — legal, but not a hit.
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: cold})
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: doubler})
	coldOuts := make([]*region.Float64, 6)
	for v := range coldOuts {
		coldOuts[v] = region.NewFloat64(16)
		rt.Submit(tt, taskrt.In(mkInput(v)), taskrt.Out(coldOuts[v]))
	}
	// Resubmit the same inputs: every one must hit.
	repeatOuts := make([]*region.Float64, 6)
	for v := range repeatOuts {
		repeatOuts[v] = region.NewFloat64(16)
		rt.Submit(tt, taskrt.In(mkInput(v)), taskrt.Out(repeatOuts[v]))
	}
	rt.Wait()
	st := cold.Stats().Types[0]
	if st.MemoizedTHT+st.MemoizedIKT != 6 {
		t.Fatalf("repeat submissions must memoize: %+v", st)
	}
	for v := range repeatOuts {
		if !repeatOuts[v].EqualContents(coldOuts[v]) {
			t.Fatalf("memoized output %d diverges", v)
		}
	}
	snap, err := cold.Snapshot()
	rt.Close()
	if err != nil {
		t.Fatal(err)
	}

	warm, err := Restore(Config{Mode: ModeStatic}, snap)
	if err != nil {
		t.Fatal(err)
	}
	rt2 := taskrt.New(taskrt.Config{Workers: 2, Memoizer: warm})
	defer rt2.Close()
	executed := 0
	tt2 := rt2.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: func(task *taskrt.Task) {
		executed++
		doubler(task)
	}})
	for v := 0; v < 6; v++ {
		out := region.NewFloat64(16)
		rt2.Submit(tt2, taskrt.In(mkInput(v)), taskrt.Out(out))
	}
	rt2.Wait()
	if executed != 0 {
		t.Fatalf("warm run executed %d bodies", executed)
	}
}

// TestPeekHashKeyAllocationFree verifies the pooled out-of-band hasher:
// repeated Peek and HashKey calls must not allocate once the pool is
// primed (the cmd/atmd lookup path).
func TestPeekHashKeyAllocationFree(t *testing.T) {
	memo := New(Config{Mode: ModeStatic})
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo})
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: doubler})
	rt.Submit(tt, taskrt.In(mkInput(1)), taskrt.Out(region.NewFloat64(16)))
	rt.Wait()

	ins := []region.Region{mkInput(1)}
	outs := []region.Region{region.NewFloat64(16)}
	if !memo.Peek(tt, ins, outs) {
		t.Fatal("Peek must hit the stored entry")
	}
	avg := testing.AllocsPerRun(200, func() {
		if !memo.Peek(tt, ins, outs) {
			t.Fatal("Peek must keep hitting")
		}
	})
	if avg != 0 {
		t.Errorf("Peek allocates %.1f/op, want 0", avg)
	}
	rt.Close()
}
