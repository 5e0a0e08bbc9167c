// Package apptest provides shared checks for the benchmark applications:
// determinism of the workload, bit-exactness under static ATM, bounded
// accuracy loss under dynamic ATM, and warm-start correctness through
// the snapshot/persist round trip. Every app package's tests call into
// it.
package apptest

import (
	"testing"

	"atm/internal/apps"
	"atm/internal/core"
	"atm/internal/persist"
	"atm/internal/taskrt"
)

// RunBaseline executes a fresh instance without ATM.
func RunBaseline(f apps.Factory, workers int) apps.App {
	app := f(apps.ScaleTest)
	rt := taskrt.New(taskrt.Config{Workers: workers})
	app.Run(rt)
	rt.Close()
	return app
}

// RunWithATM executes a fresh instance under the given ATM mode.
func RunWithATM(f apps.Factory, workers int, cfg core.Config) (apps.App, *core.ATM) {
	app := f(apps.ScaleTest)
	memo := core.New(cfg)
	rt := taskrt.New(taskrt.Config{Workers: workers, Memoizer: memo})
	app.Run(rt)
	rt.Close()
	return app, memo
}

// CheckDeterministic verifies two baseline runs produce bit-identical
// results — the precondition for ATM (§III-E) and for the harness's
// baseline-vs-ATM comparisons.
func CheckDeterministic(t *testing.T, f apps.Factory) {
	t.Helper()
	a := RunBaseline(f, 1)
	b := RunBaseline(f, 4)
	ra, rb := a.Result(), b.Result()
	if len(ra) != len(rb) {
		t.Fatalf("result arity differs: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if !ra[i].EqualContents(rb[i]) {
			t.Fatalf("result region %d differs between runs (nondeterministic workload)", i)
		}
	}
}

// CheckStaticExact verifies static ATM reproduces the baseline outputs
// bit for bit (the paper's "static ATM always achieves a 100%
// correctness", §V-A).
func CheckStaticExact(t *testing.T, f apps.Factory) {
	t.Helper()
	ref := RunBaseline(f, 4)
	app, memo := RunWithATM(f, 4, core.Config{Mode: core.ModeStatic})
	ra, rb := ref.Result(), app.Result()
	for i := range ra {
		if !ra[i].EqualContents(rb[i]) {
			t.Fatalf("static ATM diverged on result region %d", i)
		}
	}
	if c := app.Correctness(ref); c < 99.999 {
		t.Fatalf("static correctness=%v", c)
	}
	_ = memo
}

// CheckWarmStart verifies warm-start correctness end to end: the app
// runs cold under static ATM, the engine is snapshotted and pushed
// through the persist codec (encode + strict decode, exactly what a
// save/load cycle does), restored into a fresh engine, and the same
// workload runs again warm. The warm pass must serve THT hits
// immediately (MemoizedTHT > 0 with zero restored-state training) and
// produce outputs bit-identical to the cold run — a snapshot that
// changed results would be worse than no snapshot at all.
func CheckWarmStart(t *testing.T, f apps.Factory) {
	t.Helper()
	cfg := core.Config{Mode: core.ModeStatic}
	cold, memo := RunWithATM(f, 4, cfg)
	snap, err := memo.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	data, err := persist.MarshalChain(snap, nil)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	decoded, _, err := persist.UnmarshalChain(data)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	warmEngine, err := core.Restore(cfg, decoded)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}

	warm := f(apps.ScaleTest)
	rt := taskrt.New(taskrt.Config{Workers: 4, Memoizer: warmEngine})
	warm.Run(rt)
	rt.Close()

	ra, rb := cold.Result(), warm.Result()
	if len(ra) != len(rb) {
		t.Fatalf("result arity differs: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if !ra[i].EqualContents(rb[i]) {
			t.Fatalf("warm-start result region %d diverges from the cold run", i)
		}
	}
	var memoTHT int64
	for _, ts := range warmEngine.Stats().Types {
		memoTHT += ts.MemoizedTHT
		if ts.Executed+ts.MemoizedTHT+ts.MemoizedIKT != ts.Tasks {
			t.Fatalf("warm-pass accounting leak: %+v", ts)
		}
	}
	if memoTHT == 0 {
		t.Fatal("warm pass must serve THT hits from the restored snapshot")
	}
	if warmEngine.RestoredEntries() == 0 {
		t.Fatal("restore must have installed snapshot entries")
	}
}

// CheckWarmStartDeltaChain is CheckWarmStart for the incremental
// persistence path: the app runs cold on a delta-tracked engine whose
// churn is captured as a chain (empty base + per-phase delta records,
// pushed through the v2 codec like a save/append/load cycle), the
// chain is compacted into a single full snapshot, and the app runs
// again on an engine restored from the compaction. The warm pass must
// serve immediate THT hits and produce outputs bit-identical both to
// the cold run and to a warm start from the classic whole-table
// snapshot — the delta path must not be able to diverge from the full
// path. It also pins the sublinear-save property: the all-hit second
// phase appends a (near-)empty delta.
func CheckWarmStartDeltaChain(t *testing.T, f apps.Factory) {
	t.Helper()
	cfg := core.Config{Mode: core.ModeStatic}
	memo := core.New(cfg)
	memo.EnableDeltaTracking()
	base, err := memo.Snapshot() // the chain's empty base
	if err != nil {
		t.Fatalf("base snapshot: %v", err)
	}
	cold := f(apps.ScaleTest)
	rt := taskrt.New(taskrt.Config{Workers: 4, Memoizer: memo})
	cold.Run(rt)
	rt.Close()
	d1, err := memo.SnapshotDelta()
	if err != nil {
		t.Fatalf("first delta: %v", err)
	}
	// A second, fully warm pass on the same engine: its delta must be
	// (near-)empty — the sublinear property deltas exist for.
	again := f(apps.ScaleTest)
	rt2 := taskrt.New(taskrt.Config{Workers: 4, Memoizer: memo})
	again.Run(rt2)
	rt2.Close()
	d2, err := memo.SnapshotDelta()
	if err != nil {
		t.Fatalf("second delta: %v", err)
	}
	if len(d2.Entries) >= len(d1.Entries) && len(d1.Entries) > 0 {
		t.Fatalf("warm-phase delta (%d entries) must stay below the cold phase's (%d)", len(d2.Entries), len(d1.Entries))
	}
	full, err := memo.Snapshot() // the whole-table path, for comparison
	if err != nil {
		t.Fatalf("full snapshot: %v", err)
	}

	// Round-trip the chain through the v2 codec, then compact it.
	data, err := persist.MarshalChain(base, []*core.Delta{d1, d2})
	if err != nil {
		t.Fatalf("marshal chain: %v", err)
	}
	decBase, decDeltas, err := persist.UnmarshalChain(data)
	if err != nil {
		t.Fatalf("unmarshal chain: %v", err)
	}
	compacted, err := persist.Compact(decBase, decDeltas...)
	if err != nil {
		t.Fatalf("compact: %v", err)
	}

	runRestored := func(snap *core.Snapshot) (apps.App, *core.ATM) {
		t.Helper()
		engine, err := core.Restore(cfg, snap)
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		app := f(apps.ScaleTest)
		rt := taskrt.New(taskrt.Config{Workers: 4, Memoizer: engine})
		app.Run(rt)
		rt.Close()
		return app, engine
	}
	viaChain, chainEngine := runRestored(compacted)
	viaFull, _ := runRestored(full)

	ra := cold.Result()
	for i := range ra {
		if !viaChain.Result()[i].EqualContents(ra[i]) {
			t.Fatalf("delta-chain warm start diverges from the cold run on region %d", i)
		}
		if !viaChain.Result()[i].EqualContents(viaFull.Result()[i]) {
			t.Fatalf("delta-chain warm start diverges from the whole-table warm start on region %d", i)
		}
	}
	var memoTHT int64
	for _, ts := range chainEngine.Stats().Types {
		memoTHT += ts.MemoizedTHT
	}
	if memoTHT == 0 {
		t.Fatal("delta-chain warm pass must serve THT hits from the restored chain")
	}
	if chainEngine.RestoredEntries() == 0 {
		t.Fatal("compacted chain must have installed entries on restore")
	}
}

// CheckDynamicBounded verifies dynamic ATM stays above the correctness
// floor and that its accounting is consistent.
func CheckDynamicBounded(t *testing.T, f apps.Factory, floor float64) {
	t.Helper()
	ref := RunBaseline(f, 4)
	app, memo := RunWithATM(f, 4, core.Config{Mode: core.ModeDynamic})
	if c := app.Correctness(ref); c < floor {
		t.Fatalf("dynamic ATM correctness %v below floor %v", c, floor)
	}
	for _, ts := range memo.Stats().Types {
		if ts.Executed+ts.MemoizedTHT+ts.MemoizedIKT != ts.Tasks {
			t.Fatalf("task accounting leak: %+v", ts)
		}
	}
}
