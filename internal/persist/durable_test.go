package persist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"atm/internal/failpoint"
)

// These tests pin the two halves of the write-path contract. On a live
// error (disk full, EIO — injected as plain failures) a save must clean
// up after itself: no temp residue, the chain still loadable, a retry
// safe. On a simulated crash (failpoint.ErrCrash) the cleanup could not
// have run, so the tests observe the exact on-disk crash image and
// assert the recovery path digests it.

func TestWriteAtomicErrorLeavesNoResidue(t *testing.T) {
	defer failpoint.DisableAll()
	base, _ := buildChain(t)
	path := filepath.Join(t.TempDir(), "snap.atmsnap")
	if err := SaveChain(path, base, nil); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, point := range []string{FailpointWrite, FailpointSync, FailpointRename} {
		failpoint.Enable(point, func() error { return failpoint.ErrInjected })
		if err := SaveChain(path, base, nil); !errors.Is(err, failpoint.ErrInjected) {
			t.Fatalf("%s: save must surface the injected error, got %v", point, err)
		}
		failpoint.Disable(point)
		if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s: failed save left a temp file", point)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, before) {
			t.Fatalf("%s: failed save modified the published file", point)
		}
	}
	// After the failures, a plain retry succeeds.
	if err := SaveChain(path, base, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWriteAtomicCrashImage simulates a crash at each write-path stage
// and asserts the published file is never damaged, while the temp file
// survives exactly as a dead process would leave it — and that
// RemoveStaleTemp sweeps it.
func TestWriteAtomicCrashImage(t *testing.T) {
	defer failpoint.DisableAll()
	base, _ := buildChain(t)
	path := filepath.Join(t.TempDir(), "snap.atmsnap")
	if err := SaveChain(path, base, nil); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Crash after half the temp-file bytes land.
	failpoint.EnablePartial(FailpointWrite, func(total int) (int, error) {
		return total / 2, failpoint.ErrCrash
	})
	if err := SaveChain(path, base, nil); !crashed(err) {
		t.Fatalf("want crash error, got %v", err)
	}
	failpoint.Disable(FailpointWrite)
	tmp, err := os.ReadFile(path + ".tmp")
	if err != nil {
		t.Fatalf("crash image: temp file must survive: %v", err)
	}
	if len(tmp) != len(before)/2 {
		t.Fatalf("crash image: temp holds %d bytes, want %d", len(tmp), len(before)/2)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, before) {
		t.Fatal("crash during temp write modified the published file")
	}
	if removed, err := RemoveStaleTemp(path); err != nil || !removed {
		t.Fatalf("RemoveStaleTemp: %v removed=%v", err, removed)
	}
	if removed, err := RemoveStaleTemp(path); err != nil || removed {
		t.Fatalf("second RemoveStaleTemp must be a no-op: %v removed=%v", err, removed)
	}

	// Crash at the rename: temp is complete but unpublished.
	failpoint.Enable(FailpointRename, func() error { return failpoint.ErrCrash })
	if err := SaveChain(path, base, nil); !crashed(err) {
		t.Fatalf("want crash error, got %v", err)
	}
	failpoint.Disable(FailpointRename)
	if _, err := os.Stat(path + ".tmp"); err != nil {
		t.Fatalf("crash at rename must leave the temp file: %v", err)
	}
	// Recovery sweep + retry converges to a clean state.
	if _, err := RemoveStaleTemp(path); err != nil {
		t.Fatal(err)
	}
	if err := SaveChain(path, base, nil); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, before) {
		t.Fatal("post-crash retry must reproduce the snapshot byte-identically")
	}
}

// TestAppendDeltaErrorSelfTruncates pins retry safety: a live append
// failure truncates back to the pre-append length, so the chain stays
// strictly loadable and the retried append lands clean.
func TestAppendDeltaErrorSelfTruncates(t *testing.T) {
	defer failpoint.DisableAll()
	base, deltas := buildChain(t)
	path := filepath.Join(t.TempDir(), "chain.atmsnap")
	if err := SaveChain(path, base, deltas[:1]); err != nil {
		t.Fatal(err)
	}

	failpoint.EnablePartial(FailpointAppend, func(total int) (int, error) {
		return total / 2, failpoint.ErrInjected
	})
	if err := AppendDelta(path, deltas[1]); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("want injected error, got %v", err)
	}
	failpoint.Disable(FailpointAppend)

	if _, got, err := LoadChain(path); err != nil || len(got) != 1 {
		t.Fatalf("failed append must leave the chain strictly loadable: %v (deltas=%d)", err, len(got))
	}
	if err := AppendDelta(path, deltas[1]); err != nil {
		t.Fatal(err)
	}
	want, err := MarshalChain(base, deltas)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
		t.Fatal("retried append must reproduce the canonical chain bytes")
	}
}

// TestAppendDeltaCrashLeavesSalvageableTail crashes mid-append and
// walks the full recovery path: strict load rejects the torn tail,
// salvage recovers the prefix, repair truncates, and the re-append
// reproduces the canonical chain.
func TestAppendDeltaCrashLeavesSalvageableTail(t *testing.T) {
	defer failpoint.DisableAll()
	base, deltas := buildChain(t)
	path := filepath.Join(t.TempDir(), "chain.atmsnap")
	if err := SaveChain(path, base, deltas[:1]); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	failpoint.EnablePartial(FailpointAppend, func(total int) (int, error) {
		return total / 2, failpoint.ErrCrash
	})
	if err := AppendDelta(path, deltas[1]); !crashed(err) {
		t.Fatalf("want crash error, got %v", err)
	}
	failpoint.Disable(FailpointAppend)

	// The crash image: old bytes plus half the new record.
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(img) <= len(before) {
		t.Fatalf("crash image must hold a torn tail: %d <= %d bytes", len(img), len(before))
	}
	if _, _, err := LoadChain(path); err == nil {
		t.Fatal("strict load must reject the torn tail")
	}

	gotBase, gotDeltas, rep, err := LoadChainSalvage(path)
	if err != nil {
		t.Fatal(err)
	}
	if gotBase == nil || len(gotDeltas) != 1 || rep.Clean() || rep.BytesKept != int64(len(before)) {
		t.Fatalf("salvage after crash: deltas=%d report=%+v", len(gotDeltas), rep)
	}

	if _, err := RepairChain(path, SyncAlways); err != nil {
		t.Fatal(err)
	}
	if err := AppendDelta(path, deltas[1]); err != nil {
		t.Fatal(err)
	}
	want, err := MarshalChain(base, deltas)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
		t.Fatal("repair + re-append must reproduce the canonical chain bytes")
	}
}

// TestSyncOffSkipsSyncFailpoint proves the policy knob is honored: with
// SyncOff the fsync stage never runs, so an armed FailpointSync cannot
// fire, while SyncAlways trips it.
func TestSyncOffSkipsSyncFailpoint(t *testing.T) {
	defer failpoint.DisableAll()
	base, deltas := buildChain(t)
	dir := t.TempDir()
	failpoint.Enable(FailpointSync, func() error { return failpoint.ErrInjected })

	if err := SaveChainSync(filepath.Join(dir, "off.atmsnap"), base, nil, SyncOff); err != nil {
		t.Fatalf("SyncOff save must skip the fsync stage: %v", err)
	}
	if err := SaveChainSync(filepath.Join(dir, "on.atmsnap"), base, nil, SyncAlways); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("SyncAlways save must hit the fsync stage, got %v", err)
	}

	off := filepath.Join(dir, "chain-off.atmsnap")
	if err := SaveChainSync(off, base, deltas[:1], SyncOff); err != nil {
		t.Fatalf("SyncOff chain save: %v", err)
	}
	if err := AppendDeltaSync(off, deltas[1], SyncOff); err != nil {
		t.Fatalf("SyncOff append must skip the fsync stage: %v", err)
	}
	if err := AppendDeltaSync(off, deltas[1], SyncAlways); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("SyncAlways append must hit the fsync stage, got %v", err)
	}
	// The fsync-failed append backed itself out: only the SyncOff
	// append's record is in the chain.
	if _, got, err := LoadChain(off); err != nil || len(got) != 2 {
		t.Fatalf("chain after fsync-failed append: %v (deltas=%d, want 2)", err, len(got))
	}
}
