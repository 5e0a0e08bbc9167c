package harness

import (
	"errors"
	"path/filepath"
	"testing"

	"atm/internal/apps"
	"atm/internal/core"
	"atm/internal/persist"
)

// TestWarmStartRoundTrip: for every benchmark application, a static-ATM
// run that created a chain must warm-start a second run from it
// (entries restored, outputs bit-identical to the cold run).
func TestWarmStartRoundTrip(t *testing.T) {
	for _, name := range Benchmarks() {
		t.Run(name, func(t *testing.T) {
			opt := RunOptions{SnapshotChain: filepath.Join(t.TempDir(), "warm.atmchain")}
			factory := FactoryFor(name)

			cold := RunOne(factory, apps.ScaleTest, 2, Static(true), opt)
			if cold.SnapshotErr != nil {
				t.Fatalf("cold save: %v", cold.SnapshotErr)
			}

			warm := RunOne(factory, apps.ScaleTest, 2, Static(true), opt)
			if warm.SnapshotErr != nil {
				t.Fatalf("warm load: %v", warm.SnapshotErr)
			}
			if !warm.WarmStart || warm.RestoredEntries == 0 {
				t.Fatalf("warm start must restore entries: warm=%v restored=%d",
					warm.WarmStart, warm.RestoredEntries)
			}
			cr, wr := cold.App.Result(), warm.App.Result()
			if len(cr) != len(wr) {
				t.Fatalf("result lengths differ: %d != %d", len(cr), len(wr))
			}
			for i := range cr {
				if !wr[i].EqualContents(cr[i]) {
					t.Fatalf("result region %d diverges between cold and warm run", i)
				}
			}
		})
	}
}

// TestForeignHashSnapshotStartsCold: a chain stamped with the
// fingerprint Config{Mode: ModeStatic, Seed: 42} had under a deleted
// alternative key hash (core.TestFingerprintPinned holds the same
// literals) is refused with the typed config-mismatch error under
// -recover strict, and -recover cold runs cold on it without an error.
func TestForeignHashSnapshotStartsCold(t *testing.T) {
	const foreign = 0x9c4708f0c043a501
	factory := FactoryFor("Blackscholes")
	path := filepath.Join(t.TempDir(), "foreign.atmchain")
	if o := RunOne(factory, apps.ScaleTest, 2, Static(true), RunOptions{Seed: 42, SnapshotChain: path}); o.SnapshotErr != nil {
		t.Fatal(o.SnapshotErr)
	}
	base, deltas, err := persist.LoadChain(path)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := persist.Compact(base, deltas...)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Fingerprint != 0x0bd930a8984aae09 {
		t.Fatalf("the run's own fingerprint %#016x is not the pinned lookup3 one", snap.Fingerprint)
	}
	snap.Fingerprint = foreign
	if err := persist.SaveChain(path, snap, nil); err != nil {
		t.Fatal(err)
	}

	strict := RunOne(factory, apps.ScaleTest, 2, Static(true), RunOptions{Seed: 42, SnapshotChain: path})
	if !errors.Is(strict.SnapshotErr, core.ErrSnapshotConfig) || strict.WarmStart {
		t.Fatalf("strict load of a foreign-hash snapshot: warm=%v err=%v, want ErrSnapshotConfig",
			strict.WarmStart, strict.SnapshotErr)
	}
	cold := RunOne(factory, apps.ScaleTest, 2, Static(true), RunOptions{Seed: 42, SnapshotChain: path, Recover: RecoverCold})
	if cold.SnapshotErr != nil || cold.WarmStart || !cold.ColdFallback || cold.RestoredEntries != 0 {
		t.Fatalf("-recover cold on a foreign-hash snapshot: %+v (err=%v)", cold, cold.SnapshotErr)
	}
}
