package harness

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"atm/internal/apps"
	"atm/internal/persist"
)

// TestRunOneSnapshotChainSublinearAndCompactEquivalent drives the
// acceptance scenario end to end: per-rep delta saves into one chain
// file, the warm rep appending a near-empty record (sublinear in table
// size), and a compaction of that chain warm-starting bit-identically
// to the replay of the chain itself.
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

	// Compact the chain and warm-start from the result: it must behave
	// exactly like the warm start that replayed the chain's delta.
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
	viaCompact := RunOne(f, apps.ScaleTest, 4, spec, RunOptions{SnapshotChain: compacted})
	if viaCompact.SnapshotErr != nil {
		t.Fatal(viaCompact.SnapshotErr)
	}
	if !viaCompact.WarmStart || viaCompact.RestoredEntries != warm.RestoredEntries {
		t.Fatalf("compacted warm start restored %d entries, the chain replay %d: %+v",
			viaCompact.RestoredEntries, warm.RestoredEntries, viaCompact)
	}
	for i, r := range viaCompact.App.Result() {
		if !r.EqualContents(cold.App.Result()[i]) {
			t.Fatalf("compacted-chain warm start diverges from the cold run on region %d", i)
		}
	}
	if viaCompact.Reuse() != warm.Reuse() {
		t.Fatalf("reuse differs between compacted (%v) and replayed (%v) warm starts",
			viaCompact.Reuse(), warm.Reuse())
	}
}

// TestChainAppendsToWholeTableFiles runs a chain on a base-only file,
// what `snapshotctl merge` and `compact` write, and on the same table in
// the legacy version-1 layout. Each run must warm-start and append its
// delta, leaving a version-2 chain whose base is the saved table.
func TestChainAppendsToWholeTableFiles(t *testing.T) {
	f := FactoryFor("Blackscholes")
	spec := Static(true)
	dir := t.TempDir()
	whole := filepath.Join(dir, "whole.atmsnap")
	if o := RunOne(f, apps.ScaleTest, 2, spec, RunOptions{SnapshotChain: whole}); o.SnapshotErr != nil {
		t.Fatal(o.SnapshotErr)
	}
	base, deltas, err := persist.LoadChain(whole)
	if err != nil {
		t.Fatal(err)
	}
	full, err := persist.Compact(base, deltas...)
	if err != nil {
		t.Fatal(err)
	}
	if err := persist.SaveChain(whole, full, nil); err != nil {
		t.Fatal(err)
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

// TestSweepReportsWarmDeltas runs the sweep over one benchmark: its
// repetitions append to a chain of their own and the report carries
// the Speedup column and the warm-vs-cold line.
func TestSweepReportsWarmDeltas(t *testing.T) {
	var buf bytes.Buffer
	opt := testOpts(&buf, "Blackscholes")
	dir := t.TempDir()
	if err := Sweep(opt, 3, dir); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"cold", "warm", "Speedup", "THTHitRatio", "Append", "Blackscholes warm-vs-cold"} {
		if !strings.Contains(out, want) {
			t.Fatalf("sweep report missing %q:\n%s", want, out)
		}
	}
	assertChainRecords(t, filepath.Join(dir, "Blackscholes.atmchain"), 3)
}

// TestShardedSweepMergesShards runs the sweep over two benchmarks: each
// benchmark's chain is a shard, the shards merge, and each benchmark
// restarts warm from a copy of the merged snapshot of its own.
func TestShardedSweepMergesShards(t *testing.T) {
	var buf bytes.Buffer
	opt := testOpts(&buf, "Blackscholes", "Kmeans")
	dir := t.TempDir()
	if err := Sweep(opt, 2, dir); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"RestoredEntries", "Blackscholes warm-vs-cold", "Kmeans warm-vs-cold", "Merged 2 chain(s)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("sweep report missing %q:\n%s", want, out)
		}
	}
	for _, name := range opt.Benchmarks {
		assertChainRecords(t, filepath.Join(dir, name+".atmchain"), 2)
		assertChainRecords(t, filepath.Join(dir, name+".merged.atmchain"), 1)
	}
}

// assertChainRecords fails t unless path holds a chain of a base record
// and want delta records.
func assertChainRecords(t *testing.T, path string, want int) {
	t.Helper()
	base, deltas, err := persist.LoadChain(path)
	if err != nil || base == nil || len(deltas) != want {
		t.Fatalf("%s: want a base and %d delta(s), got %d (%v)", filepath.Base(path), want, len(deltas), err)
	}
}
