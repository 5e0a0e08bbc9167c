package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"atm/internal/apps"
	"atm/internal/core"
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
// what `snapshotctl merge` and `compact` write. The run must warm-start
// and append its delta, leaving a chain whose base is the saved table.
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

	o := RunOne(f, apps.ScaleTest, 2, spec, RunOptions{SnapshotChain: whole})
	if o.SnapshotErr != nil || !o.WarmStart || o.DeltaSaves != 1 {
		t.Fatalf("chain run: warm=%v saves=%d err=%v", o.WarmStart, o.DeltaSaves, o.SnapshotErr)
	}
	data, err := os.ReadFile(whole)
	if err != nil {
		t.Fatal(err)
	}
	base, deltas, err = persist.UnmarshalChain(data)
	if err != nil || len(deltas) != 1 {
		t.Fatalf("want the saved base plus one delta: %d deltas, %v", len(deltas), err)
	}
	if rebased, _ := persist.MarshalChain(base, nil); !bytes.Equal(rebased, saved) {
		t.Fatal("the chain's base is not the saved table")
	}
}

// TestRunOneSnapshotDeltaEvery exercises the periodic mid-run saver,
// whose saves race the run's inserts: every entry in the table at the
// end of the run is in the chain, which a warm start restores in full.
// The first save rewrites the cold start's empty base, so the chain
// holds fewer delta records than the run made saves.
func TestRunOneSnapshotDeltaEvery(t *testing.T) {
	chain := filepath.Join(t.TempDir(), "service.atmchain")
	f := FactoryFor("Kmeans")
	o := RunOne(f, apps.ScaleTest, 4, Static(true),
		RunOptions{SnapshotChain: chain, SnapshotDeltaEvery: 200 * time.Microsecond})
	if o.SnapshotErr != nil {
		t.Fatal(o.SnapshotErr)
	}
	if o.DeltaSaves < 1 {
		t.Fatalf("the final save must always happen: %+v", o)
	}
	_, deltas, err := persist.LoadChain(chain)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) >= o.DeltaSaves {
		t.Fatalf("chain holds %d delta records after %d saves: the first save did not rewrite", len(deltas), o.DeltaSaves)
	}
	if n := entryCount(chainTable(t, chain)); n != o.Stats.THTEntries {
		t.Fatalf("chain folds to %d entries, the table held %d at the end of the run", n, o.Stats.THTEntries)
	}
	warm := RunOne(f, apps.ScaleTest, 4, Static(true), RunOptions{SnapshotChain: chain})
	if warm.SnapshotErr != nil || warm.RestoredEntries != o.Stats.THTEntries {
		t.Fatalf("warm start restored %d entries of %d (err %v)", warm.RestoredEntries, o.Stats.THTEntries, warm.SnapshotErr)
	}
}

// entryCount counts a snapshot's entries.
func entryCount(s *core.Snapshot) int64 {
	var n int64
	for _, sec := range s.Types {
		n += int64(len(sec.Entries))
	}
	return n
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
	for _, want := range []string{"cold", "warm", "Speedup", "THTHitRatio", "Saved", "Blackscholes warm-vs-cold"} {
		if !strings.Contains(out, want) {
			t.Fatalf("sweep report missing %q:\n%s", want, out)
		}
	}
	assertChainRestores(t, dir, "Blackscholes", 3)
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
		assertChainRestores(t, dir, name, 2)
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

// assertChainRestores fails t unless the chain a sweep's reps
// repetitions of bench saved restores every entry it holds: a warm run
// from a copy of it installs the chain's whole fold, which is not empty.
// The cold repetition's save rewrites the empty base, so the chain holds
// fewer than reps delta records.
func assertChainRestores(t *testing.T, dir, bench string, reps int) {
	t.Helper()
	path := filepath.Join(dir, bench+".atmchain")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, deltas, err := persist.UnmarshalChain(data)
	if err != nil || len(deltas) >= reps {
		t.Fatalf("%s: %d delta records after %d saves (%v)", filepath.Base(path), len(deltas), reps, err)
	}
	want := entryCount(chainTable(t, path))
	cp := filepath.Join(t.TempDir(), "copy.atmchain")
	if err := os.WriteFile(cp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	o := RunOne(FactoryFor(bench), apps.ScaleTest, 2, Dynamic(true), RunOptions{SnapshotChain: cp})
	if o.SnapshotErr != nil || !o.WarmStart || want == 0 || o.RestoredEntries != want {
		t.Fatalf("%s: warm start restored %d of the chain's %d entries (err %v)", filepath.Base(path), o.RestoredEntries, want, o.SnapshotErr)
	}
}
