package main

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"atm/internal/core"
	"atm/internal/persist"
	"atm/internal/region"
	"atm/internal/taskrt"
)

// buildShard runs a small static workload over [from, from+n) inputs
// and returns the engine's chain parts: an empty base plus one delta.
func buildShard(t *testing.T, from, n int) (*core.Snapshot, *core.Delta) {
	t.Helper()
	memo := core.New(core.Config{Mode: core.ModeStatic})
	memo.EnableDeltaTracking()
	base, err := memo.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rt := taskrt.New(taskrt.Config{Workers: 2, Memoizer: memo})
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: func(task *taskrt.Task) {
		in, out := task.Float64s(0), task.Float64s(1)
		for i := range in {
			out[i] = 2 * in[i]
		}
	}})
	for v := from; v < from+n; v++ {
		in := region.NewFloat64(4)
		for i := range in.Data {
			in.Data[i] = float64(v*10 + i)
		}
		rt.Submit(tt, taskrt.In(in), taskrt.Out(region.NewFloat64(4)))
	}
	rt.Wait()
	d, err := memo.SnapshotDelta()
	if err != nil {
		t.Fatal(err)
	}
	rt.Close()
	return base, d
}

func runCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestInspectAndVerify(t *testing.T) {
	dir := t.TempDir()
	base, d := buildShard(t, 0, 4)
	chain := filepath.Join(dir, "chain.atmsnap")
	if err := persist.SaveChain(chain, base, []*core.Delta{d}); err != nil {
		t.Fatal(err)
	}
	whole := filepath.Join(dir, "full.atmsnap")
	full, err := persist.Compact(base, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := persist.SaveChain(whole, full, nil); err != nil {
		t.Fatal(err)
	}

	code, out, errw := runCmd(t, "inspect", chain, whole)
	if code != 0 {
		t.Fatalf("inspect: code %d, stderr %s", code, errw)
	}
	for _, want := range []string{"version 2", "delta 1:", `type "double"`, "4 entries"} {
		if !strings.Contains(out, want) {
			t.Fatalf("inspect output missing %q:\n%s", want, out)
		}
	}

	code, out, _ = runCmd(t, "verify", chain, whole)
	if code != 0 || strings.Count(out, "OK") != 2 {
		t.Fatalf("verify: code %d, out %s", code, out)
	}

	// A version-1 file, the golden chain with its version field set to
	// 1, is unrecoverable: verify exits 3 and leaves it as it was.
	v1, err := os.ReadFile(filepath.Join("..", "..", "internal", "persist", "testdata", "v2_chain.atmsnap"))
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(v1[8:12], 1)
	old := filepath.Join(dir, "v1.atmsnap")
	if err := os.WriteFile(old, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errw = runCmd(t, "verify", old)
	if code != 3 || !strings.Contains(errw, "version") {
		t.Fatalf("verify of a version-1 file: code %d, stderr %s", code, errw)
	}
	if got, _ := os.ReadFile(old); !bytes.Equal(got, v1) {
		t.Fatal("verify modified a version-1 file")
	}

	// Corruption: flip one byte in the chain tail and verify must fail
	// with a nonzero exit and a typed complaint.
	data, err := os.ReadFile(chain)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-6] ^= 0xff
	bad := filepath.Join(dir, "bad.atmsnap")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errw = runCmd(t, "verify", bad)
	if code == 0 || !strings.Contains(errw, "FAIL") {
		t.Fatalf("verify of a corrupt file must fail: code %d, stderr %s", code, errw)
	}
}

func TestCompactFoldsChainFiles(t *testing.T) {
	dir := t.TempDir()
	base, d1 := buildShard(t, 0, 3)
	_, d2 := buildShard(t, 3, 2) // same engine config: fingerprints match
	chain := filepath.Join(dir, "chain.atmsnap")
	if err := persist.SaveChain(chain, base, []*core.Delta{d1}); err != nil {
		t.Fatal(err)
	}
	cont := filepath.Join(dir, "cont.atmsnap")
	if err := persist.SaveChain(cont, nil, []*core.Delta{d2}); err != nil {
		t.Fatal(err)
	}
	outFile := filepath.Join(dir, "full.atmsnap")
	code, out, errw := runCmd(t, "compact", "-o", outFile, chain, cont)
	if code != 0 {
		t.Fatalf("compact: code %d, stderr %s", code, errw)
	}
	if !strings.Contains(out, "5 entries") {
		t.Fatalf("compact summary: %s", out)
	}
	full, deltas, err := persist.LoadChain(outFile)
	if err != nil {
		t.Fatal(err)
	}
	if full == nil || len(deltas) != 0 {
		t.Fatal("compact output must be a single base record")
	}
	var entries int
	for _, sec := range full.Types {
		entries += len(sec.Entries)
	}
	if entries != 5 {
		t.Fatalf("compacted entries: %d", entries)
	}

	// A delta-only file cannot start a chain — and cannot be a merge
	// shard either (merge inputs are independent shards).
	code, _, _ = runCmd(t, "compact", "-o", outFile, cont)
	if code == 0 {
		t.Fatal("compact of a baseless chain must fail")
	}
	code, _, errw = runCmd(t, "merge", "-o", outFile, cont)
	if code == 0 || !strings.Contains(errw, "delta-only") {
		t.Fatalf("merge of a delta-only file must fail with guidance: code %d, stderr %s", code, errw)
	}
	// A second base in a continuation is rejected.
	code, _, _ = runCmd(t, "compact", "-o", outFile, chain, chain)
	if code == 0 {
		t.Fatal("compact with two bases must fail")
	}
}

func TestMergeCombinesShardsAndRestores(t *testing.T) {
	dir := t.TempDir()
	baseA, dA := buildShard(t, 0, 4) // inputs 0..3
	baseB, dB := buildShard(t, 2, 4) // inputs 2..5: overlaps A on 2,3
	shardA := filepath.Join(dir, "a.atmsnap")
	shardB := filepath.Join(dir, "b.atmsnap")
	if err := persist.SaveChain(shardA, baseA, []*core.Delta{dA}); err != nil {
		t.Fatal(err)
	}
	if err := persist.SaveChain(shardB, baseB, []*core.Delta{dB}); err != nil {
		t.Fatal(err)
	}
	merged := filepath.Join(dir, "merged.atmsnap")
	code, _, errw := runCmd(t, "merge", "-o", merged, shardA, shardB)
	if code != 0 {
		t.Fatalf("merge: code %d, stderr %s", code, errw)
	}

	// The merged file warm-starts an engine that serves the union of
	// both shards' inputs without executing a body.
	full, _, err := persist.LoadChain(merged)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := core.Restore(core.Config{Mode: core.ModeStatic}, full)
	if err != nil {
		t.Fatal(err)
	}
	rt := taskrt.New(taskrt.Config{Workers: 2, Memoizer: warm})
	defer rt.Close()
	executed := 0
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: func(task *taskrt.Task) {
		executed++
		in, out := task.Float64s(0), task.Float64s(1)
		for i := range in {
			out[i] = 2 * in[i]
		}
	}})
	for v := 0; v < 6; v++ {
		in := region.NewFloat64(4)
		for i := range in.Data {
			in.Data[i] = float64(v*10 + i)
		}
		rt.Submit(tt, taskrt.In(in), taskrt.Out(region.NewFloat64(4)))
	}
	rt.Wait()
	if executed != 0 {
		t.Fatalf("merged warm start executed %d bodies instead of serving the shard union", executed)
	}
}

func TestUsageAndUnknownCommand(t *testing.T) {
	if code, _, _ := runCmd(t); code != 2 {
		t.Fatal("bare invocation must print usage with code 2")
	}
	if code, _, _ := runCmd(t, "bogus"); code != 2 {
		t.Fatal("unknown command must print usage with code 2")
	}
	if code, _, _ := runCmd(t, "merge", "-o", ""); code != 2 {
		t.Fatal("merge without output/inputs must print usage with code 2")
	}
}

// tornChain writes a two-delta chain and returns the path of a copy
// whose tail is cut mid-record, plus the intact original for reference.
func tornChain(t *testing.T, dir string) (torn, intact string) {
	t.Helper()
	base, d1 := buildShard(t, 0, 3)
	_, d2 := buildShard(t, 3, 2)
	intact = filepath.Join(dir, "intact.atmsnap")
	if err := persist.SaveChain(intact, base, []*core.Delta{d1, d2}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(intact)
	if err != nil {
		t.Fatal(err)
	}
	torn = filepath.Join(dir, "torn.atmsnap")
	if err := os.WriteFile(torn, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	return torn, intact
}

// TestVerifyExitCodes pins the recovery-script contract: 0 clean, 2
// salvageable torn tail, 3 unrecoverable corruption, 1 unreadable —
// and a multi-file run exits with its worst file's code.
func TestVerifyExitCodes(t *testing.T) {
	dir := t.TempDir()
	torn, intact := tornChain(t, dir)

	if code, out, _ := runCmd(t, "verify", intact); code != 0 || !strings.Contains(out, "OK") {
		t.Fatalf("clean: code %d, out %s", code, out)
	}
	code, out, _ := runCmd(t, "verify", torn)
	if code != 2 || !strings.Contains(out, "TORN") || !strings.Contains(out, "snapshotctl repair") {
		t.Fatalf("torn: code %d, out %s", code, out)
	}

	data, err := os.ReadFile(intact)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-6] ^= 0xff // inside the last record body: CRC trips
	corrupt := filepath.Join(dir, "corrupt.atmsnap")
	if err := os.WriteFile(corrupt, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, errw := runCmd(t, "verify", corrupt); code != 3 || !strings.Contains(errw, "FAIL") {
		t.Fatalf("corrupt: code %d, stderr %s", code, errw)
	}

	// An entry that declares an input region is unrecoverable too.
	inputRegion := filepath.Join("..", "..", "internal", "persist", "testdata", "v2_input_region.atmsnap")
	if code, _, errw := runCmd(t, "verify", inputRegion); code != 3 || !strings.Contains(errw, "input region") {
		t.Fatalf("input region: code %d, stderr %s", code, errw)
	}

	if code, _, _ := runCmd(t, "verify", filepath.Join(dir, "absent.atmsnap")); code != 1 {
		t.Fatalf("unreadable: code %d", code)
	}

	// Worst file wins: clean + torn + corrupt -> 3.
	if code, _, _ := runCmd(t, "verify", intact, torn, corrupt); code != 3 {
		t.Fatalf("mixed: code %d, want 3", code)
	}
}

func TestRepairCommand(t *testing.T) {
	dir := t.TempDir()
	torn, intact := tornChain(t, dir)

	code, out, errw := runCmd(t, "repair", torn)
	if code != 0 || !strings.Contains(out, "repaired") {
		t.Fatalf("repair: code %d, out %s, stderr %s", code, out, errw)
	}
	// The repaired file verifies clean and accepts appends (the chain
	// lost its torn last record but kept everything before it).
	if code, out, _ := runCmd(t, "verify", torn); code != 0 || !strings.Contains(out, "1 deltas") {
		t.Fatalf("verify after repair: code %d, out %s", code, out)
	}
	// Repairing a clean file is a reported no-op.
	if code, out, _ := runCmd(t, "repair", intact); code != 0 || !strings.Contains(out, "clean") {
		t.Fatalf("repair clean: code %d, out %s", code, out)
	}
	// Repair refuses corruption.
	data, err := os.ReadFile(intact)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-6] ^= 0xff
	corrupt := filepath.Join(dir, "corrupt.atmsnap")
	if err := os.WriteFile(corrupt, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, errw := runCmd(t, "repair", corrupt); code != 3 || !strings.Contains(errw, "FAIL") {
		t.Fatalf("repair corrupt: code %d, stderr %s", code, errw)
	}
	if after, _ := os.ReadFile(corrupt); !bytes.Equal(after, data) {
		t.Fatal("repair must not modify an unrecoverable file")
	}
}

func TestScrubCommand(t *testing.T) {
	dir := t.TempDir()
	shard := filepath.Join(dir, "shard0")
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	torn, intact := tornChain(t, shard)
	// An orphaned temp file from a crashed save, and a non-snapshot
	// bystander file that scrub must leave alone.
	orphan := intact + ".tmp"
	if err := os.WriteFile(orphan, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	readme := filepath.Join(shard, "README.txt")
	if err := os.WriteFile(readme, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	code, out, errw := runCmd(t, "scrub", dir)
	if code != 2 {
		t.Fatalf("scrub: code %d, out %s, stderr %s", code, out, errw)
	}
	if !strings.Contains(out, "1 clean, 1 torn") || !strings.Contains(out, "1 orphaned temps") {
		t.Fatalf("scrub summary: %s", out)
	}
	if strings.Contains(out, "README") {
		t.Fatalf("scrub must skip non-snapshot files silently:\n%s", out)
	}

	code, out, errw = runCmd(t, "scrub", "-repair", dir)
	if code != 0 {
		t.Fatalf("scrub -repair: code %d, out %s, stderr %s", code, out, errw)
	}
	if !strings.Contains(out, "1 repaired") || !strings.Contains(out, "1 swept") {
		t.Fatalf("scrub -repair summary: %s", out)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("scrub -repair must remove the orphaned temp file")
	}
	// Everything now verifies clean; a second scrub is all-clean.
	if code, out, _ := runCmd(t, "scrub", dir); code != 0 || !strings.Contains(out, "2 clean, 0 torn") {
		t.Fatalf("post-repair scrub: code %d, out %s", code, out)
	}
	if code, _, _ := runCmd(t, "verify", torn, intact); code != 0 {
		t.Fatalf("post-repair verify: code %d", code)
	}
}
