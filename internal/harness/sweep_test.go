package harness

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"time"

	"atm/internal/apps"
	"atm/internal/core"
	"atm/internal/persist"
)

func TestRunOneSnapshotPathWarmStarts(t *testing.T) {
	f := FactoryFor("Blackscholes")
	path := filepath.Join(t.TempDir(), "warm.atmsnap")
	opt := RunOptions{SnapshotPath: path}

	// First run: the file does not exist — a normal cold start that
	// saves on finish.
	cold := RunOne(f, apps.ScaleTest, 4, Static(true), opt)
	if cold.SnapshotErr != nil {
		t.Fatalf("cold run: %v", cold.SnapshotErr)
	}
	if cold.WarmStart || cold.RestoredEntries != 0 {
		t.Fatalf("first run must be cold: %+v", cold)
	}

	// Second run: loads the saved snapshot and hits immediately.
	warm := RunOne(f, apps.ScaleTest, 4, Static(true), opt)
	if warm.SnapshotErr != nil {
		t.Fatalf("warm run: %v", warm.SnapshotErr)
	}
	if !warm.WarmStart || warm.RestoredEntries == 0 {
		t.Fatalf("second run must warm-start: %+v", warm)
	}
	if warm.Reuse() <= cold.Reuse() {
		t.Fatalf("warm reuse %v must exceed cold %v", warm.Reuse(), cold.Reuse())
	}
	for i, r := range warm.App.Result() {
		if !r.EqualContents(cold.App.Result()[i]) {
			t.Fatalf("warm result region %d diverges", i)
		}
	}

	// A mismatched spec (different fingerprint) must surface the typed
	// error, not silently serve hits — and the run still completes cold.
	bad := RunOne(f, apps.ScaleTest, 4, Static(true), RunOptions{SnapshotLoad: path, Seed: 99})
	if !errors.Is(bad.SnapshotErr, core.ErrSnapshotConfig) {
		t.Fatalf("fingerprint mismatch must be typed: %v", bad.SnapshotErr)
	}
	if bad.WarmStart || bad.RestoredEntries != 0 {
		t.Fatal("mismatched snapshot must not warm-start or restore entries")
	}
}

func TestSweepReportsWarmDeltas(t *testing.T) {
	var buf bytes.Buffer
	opt := testOpts(&buf, "Blackscholes")
	if err := Sweep(opt, 3, filepath.Join(t.TempDir(), "sweep.atmsnap")); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"cold", "warm", "warm-vs-cold", "THTHitRatio"} {
		if !strings.Contains(out, want) {
			t.Fatalf("sweep report missing %q:\n%s", want, out)
		}
	}
}

// TestRunOneSnapshotChainSublinearAndCompactEquivalent drives the
// acceptance scenario end to end: per-rep delta saves into one chain
// file, the warm rep appending a near-empty record (sublinear in table
// size), and a compaction of that chain warm-starting bit-identically
// to the whole-table snapshot path.
func TestRunOneSnapshotChainSublinearAndCompactEquivalent(t *testing.T) {
	f := FactoryFor("Blackscholes")
	dir := t.TempDir()
	chain := filepath.Join(dir, "warm.atmchain")
	spec := Static(true)

	cold := RunOne(f, apps.ScaleTest, 4, spec, RunOptions{SnapshotChain: chain})
	if cold.SnapshotErr != nil {
		t.Fatalf("cold run: %v", cold.SnapshotErr)
	}
	if cold.WarmStart || cold.DeltaSaves != 1 || cold.DeltaBytes == 0 {
		t.Fatalf("cold chain run must create the chain and append one delta: %+v", cold)
	}

	warm := RunOne(f, apps.ScaleTest, 4, spec, RunOptions{SnapshotChain: chain})
	if warm.SnapshotErr != nil {
		t.Fatalf("warm run: %v", warm.SnapshotErr)
	}
	if !warm.WarmStart || warm.RestoredEntries == 0 {
		t.Fatalf("second chain run must warm-start: %+v", warm)
	}
	for i, r := range warm.App.Result() {
		if !r.EqualContents(cold.App.Result()[i]) {
			t.Fatalf("warm result region %d diverges", i)
		}
	}
	// Sublinear: the all-hit warm rep appends a near-empty delta record,
	// a tiny fraction of the cold rep's full-churn delta.
	if warm.DeltaBytes*4 >= cold.DeltaBytes {
		t.Fatalf("warm append %dB must be well below cold append %dB", warm.DeltaBytes, cold.DeltaBytes)
	}

	// Compact the chain and warm-start from the result; also warm-start
	// from a classic whole-table snapshot of the same workload. The two
	// paths must produce bit-identical outputs and full reuse.
	base, deltas, err := persist.LoadChain(chain)
	if err != nil {
		t.Fatal(err)
	}
	full, err := persist.Compact(base, deltas...)
	if err != nil {
		t.Fatal(err)
	}
	compacted := filepath.Join(dir, "compacted.atmsnap")
	if err := persist.SaveChain(compacted, full, nil); err != nil {
		t.Fatal(err)
	}
	wholePath := filepath.Join(dir, "whole.atmsnap")
	whole := RunOne(f, apps.ScaleTest, 4, spec, RunOptions{SnapshotSave: wholePath})
	if whole.SnapshotErr != nil {
		t.Fatal(whole.SnapshotErr)
	}

	viaCompact := RunOne(f, apps.ScaleTest, 4, spec, RunOptions{SnapshotLoad: compacted})
	viaWhole := RunOne(f, apps.ScaleTest, 4, spec, RunOptions{SnapshotLoad: wholePath})
	for _, o := range []Outcome{viaCompact, viaWhole} {
		if o.SnapshotErr != nil {
			t.Fatal(o.SnapshotErr)
		}
		if !o.WarmStart || o.RestoredEntries == 0 {
			t.Fatalf("restored run must warm-start: %+v", o)
		}
	}
	for i, r := range viaCompact.App.Result() {
		if !r.EqualContents(viaWhole.App.Result()[i]) {
			t.Fatalf("compacted-chain warm start diverges from whole-table warm start on region %d", i)
		}
		if !r.EqualContents(cold.App.Result()[i]) {
			t.Fatalf("compacted-chain warm start diverges from the cold run on region %d", i)
		}
	}
	if viaCompact.Reuse() != viaWhole.Reuse() {
		t.Fatalf("reuse differs between compacted (%v) and whole-table (%v) warm starts",
			viaCompact.Reuse(), viaWhole.Reuse())
	}
}

// TestChainAppendsToWholeTableFiles runs chain mode on a file that a
// whole-table save wrote (atmbench -save, atmd -snapshot) and on the
// same table in the legacy version-1 layout. Each run must warm-start
// and append its delta, leaving a version-2 chain whose base is the
// saved table.
func TestChainAppendsToWholeTableFiles(t *testing.T) {
	f := FactoryFor("Blackscholes")
	spec := Static(true)
	dir := t.TempDir()
	whole := filepath.Join(dir, "whole.atmsnap")
	if o := RunOne(f, apps.ScaleTest, 2, spec, RunOptions{SnapshotSave: whole}); o.SnapshotErr != nil {
		t.Fatal(o.SnapshotErr)
	}
	saved, err := os.ReadFile(whole)
	if err != nil {
		t.Fatal(err)
	}
	// The legacy layout of the same table: the 20-byte header carrying
	// version 1, then the base record's body without its 5-byte frame
	// and 4-byte CRC.
	legacy := filepath.Join(dir, "legacy.atmsnap")
	v1 := append(saved[:20:20], saved[25:len(saved)-4]...)
	binary.LittleEndian.PutUint32(v1[8:], persist.Version1)
	if err := os.WriteFile(legacy, v1, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{whole, legacy} {
		o := RunOne(f, apps.ScaleTest, 2, spec, RunOptions{SnapshotChain: path})
		if o.SnapshotErr != nil || !o.WarmStart || o.DeltaSaves != 1 {
			t.Fatalf("%s: chain run: warm=%v saves=%d err=%v", filepath.Base(path), o.WarmStart, o.DeltaSaves, o.SnapshotErr)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := persist.FileVersion(data); v != persist.Version2 {
			t.Fatalf("%s: chain mode left a version-%d file", filepath.Base(path), v)
		}
		base, deltas, err := persist.UnmarshalChain(data)
		if err != nil || len(deltas) != 1 {
			t.Fatalf("%s: want the saved base plus one delta: %d deltas, %v", filepath.Base(path), len(deltas), err)
		}
		if rebased, _ := persist.MarshalChain(base, nil); !bytes.Equal(rebased, saved) {
			t.Fatalf("%s: the chain's base is not the saved table", filepath.Base(path))
		}
	}
}

// TestRunOneSnapshotDeltaEvery exercises the periodic mid-run saver:
// every tick appends one loadable delta record, and the final record
// count matches what the run reports.
func TestRunOneSnapshotDeltaEvery(t *testing.T) {
	chain := filepath.Join(t.TempDir(), "service.atmchain")
	o := RunOne(FactoryFor("Kmeans"), apps.ScaleTest, 4, Static(true),
		RunOptions{SnapshotChain: chain, SnapshotDeltaEvery: 200 * time.Microsecond})
	if o.SnapshotErr != nil {
		t.Fatal(o.SnapshotErr)
	}
	if o.DeltaSaves < 1 {
		t.Fatalf("the final delta save must always happen: %+v", o)
	}
	base, deltas, err := persist.LoadChain(chain)
	if err != nil {
		t.Fatal(err)
	}
	if base == nil {
		t.Fatal("chain must start with its base record")
	}
	if len(deltas) != o.DeltaSaves {
		t.Fatalf("chain holds %d delta records, run reported %d saves", len(deltas), o.DeltaSaves)
	}
}

func TestShardedSweepMergesShards(t *testing.T) {
	var buf bytes.Buffer
	opt := testOpts(&buf, "Blackscholes", "Kmeans")
	if err := ShardedSweep(opt, 2, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Sharded delta sweep", "cold", "warm", "Merged 2 shard chain(s)", "RestoredEntries"} {
		if !strings.Contains(out, want) {
			t.Fatalf("sharded sweep report missing %q:\n%s", want, out)
		}
	}
}
