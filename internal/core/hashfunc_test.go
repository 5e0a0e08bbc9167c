package core

import (
	"errors"
	"testing"

	"atm/internal/hashx"
	"atm/internal/region"
	"atm/internal/taskrt"
)

// TestFingerprintHashFuncDefaultUnchanged pins the back-compat contract
// of the fingerprint extension: a Lookup3 (default) config fingerprints
// exactly as it did before Config.HashFunc existed, so every persisted
// snapshot header — including the golden corpus — still matches.
func TestFingerprintHashFuncDefaultUnchanged(t *testing.T) {
	cfg := Config{Mode: ModeStatic, Seed: 42}
	base := Fingerprint(cfg)
	cfg.HashFunc = hashx.Lookup3 // explicit zero value
	if got := Fingerprint(cfg); got != base {
		t.Fatalf("explicit Lookup3 changed fingerprint: %#x != %#x", got, base)
	}
	// Manual FNV over the pre-hashx field list: the formula must not
	// have drifted.
	want := uint64(fnvOffset64)
	mix := func(v uint64) {
		want ^= v
		want *= fnvPrime64
	}
	withDefaults := cfg
	withDefaults.applyDefaults()
	mix(uint64(withDefaults.Mode))
	mix(uint64(withDefaults.FixedLevel))
	mix(uint64(withDefaults.NBits))
	mix(uint64(withDefaults.M))
	mix(0) // DisableIKT
	mix(0) // DisableTypeAware
	mix(0) // VerifyInputs
	mix(withDefaults.Seed)
	if base != want {
		t.Fatalf("default fingerprint formula drifted: %#x != %#x", base, want)
	}
}

func TestFingerprintHashFuncDistinctAndDecodable(t *testing.T) {
	seen := map[uint64]hashx.Func{}
	for _, f := range hashx.Funcs() {
		fp := Fingerprint(Config{Mode: ModeStatic, Seed: 7, HashFunc: f})
		if prev, dup := seen[fp]; dup {
			t.Fatalf("funcs %v and %v share fingerprint %#x", prev, f, fp)
		}
		seen[fp] = f
		if got := FingerprintHashFunc(fp); got != f {
			t.Errorf("FingerprintHashFunc(%#x) = %v, want %v", fp, got, f)
		}
	}
	// Unregistered marker values must fall back to the default rather
	// than invent a Func.
	if got := FingerprintHashFunc(uint64(hashMarker) | 0x7f); got != hashx.Lookup3 {
		t.Errorf("unregistered marker decoded to %v", got)
	}
}

// TestSnapshotCrossHashRejected is the cross-implementation property
// test: warm state persisted under hash A must be rejected — with the
// typed config-mismatch error — when restored into an engine running
// hash B, for every ordered pair of registered functions.
func TestSnapshotCrossHashRejected(t *testing.T) {
	for _, a := range hashx.Funcs() {
		cold := New(Config{Mode: ModeStatic, HashFunc: a})
		rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: cold})
		tt := rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: doubler})
		rt.Submit(tt, taskrt.In(mkInput(1)), taskrt.Out(region.NewFloat64(16)))
		rt.Wait()
		snap, err := cold.Snapshot()
		rt.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range hashx.Funcs() {
			warm, err := Restore(Config{Mode: ModeStatic, HashFunc: b}, snap)
			if a == b {
				if err != nil {
					t.Fatalf("same-hash (%v) restore failed: %v", a, err)
				}
				continue
			}
			if warm != nil || !errors.Is(err, ErrSnapshotConfig) {
				t.Fatalf("restore %v snapshot into %v engine: got (%v, %v), want ErrSnapshotConfig", a, b, warm, err)
			}
		}
	}
}

// TestEngineUnderEachHash runs the full memoize-snapshot-restore cycle
// under every registered hash function: hits must be served, outputs
// must match the executed run, and a warm restart under the same
// function must serve every task from the restored THT.
func TestEngineUnderEachHash(t *testing.T) {
	for _, f := range hashx.Funcs() {
		t.Run(f.String(), func(t *testing.T) {
			cold := New(Config{Mode: ModeStatic, HashFunc: f})
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

			warm, err := Restore(Config{Mode: ModeStatic, HashFunc: f}, snap)
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
				t.Fatalf("warm run under %v executed %d bodies", f, executed)
			}
		})
	}
}

// TestPeekHashKeyAllocationFree verifies the pooled out-of-band hasher:
// repeated Peek and HashKey calls must not allocate once the pool is
// primed (the cmd/atmd lookup path).
func TestPeekHashKeyAllocationFree(t *testing.T) {
	for _, f := range hashx.Funcs() {
		memo := New(Config{Mode: ModeStatic, HashFunc: f})
		rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo})
		tt := rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: doubler})
		rt.Submit(tt, taskrt.In(mkInput(1)), taskrt.Out(region.NewFloat64(16)))
		rt.Wait()

		ins := []region.Region{mkInput(1)}
		outs := []region.Region{region.NewFloat64(16)}
		if !memo.Peek(tt, ins, outs) {
			t.Fatalf("%v: Peek must hit the stored entry", f)
		}
		avg := testing.AllocsPerRun(200, func() {
			if !memo.Peek(tt, ins, outs) {
				t.Fatalf("%v: Peek must keep hitting", f)
			}
		})
		if avg != 0 {
			t.Errorf("%v: Peek allocates %.1f/op, want 0", f, avg)
		}
		rt.Close()
	}
}
