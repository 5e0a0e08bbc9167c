package harness

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"atm/internal/persist"
	"atm/internal/service"
)

func serveTasks(t *testing.T, e *service.Engine, kind string, keys int, reps int) {
	t.Helper()
	k, ok := service.KindByName(kind)
	if !ok {
		t.Fatalf("kind %q missing", kind)
	}
	for rep := 0; rep < reps; rep++ {
		tasks := make([]service.Task, keys)
		for i := range tasks {
			tasks[i] = service.Task{Kind: kind, Input: service.Input(k, uint64(i), 1)}
		}
		if _, _, err := e.Do(tasks); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServeChainWarmStart runs a served engine over a delta chain, then
// restarts it: the second engine must warm-start from the first one's
// state, and its snapshot saves must append to the same chain.
func TestServeChainWarmStart(t *testing.T) {
	chain := filepath.Join(t.TempDir(), "svc.atmchain")
	opt := RunOptions{SnapshotChain: chain, Sync: persist.SyncOff}

	e1, info1 := Serve(Dynamic(true), opt, service.Config{Workers: 2})
	if info1.WarmStart || info1.SnapshotErr != nil {
		t.Fatalf("first serve: %+v", info1)
	}
	serveTasks(t, e1, "lu", 4, 30)
	if err := e1.Snapshot(); err != nil { // the Save hook: a delta append
		t.Fatal(err)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(chain); err != nil {
		t.Fatalf("chain file not created: %v", err)
	}

	e2, info2 := Serve(Dynamic(true), opt, service.Config{Workers: 2})
	defer e2.Close()
	if info2.SnapshotErr != nil {
		t.Fatalf("second serve: %v", info2.SnapshotErr)
	}
	if !info2.WarmStart || info2.RestoredEntries == 0 {
		t.Fatalf("second serve not warm: %+v", info2)
	}
	// The warm table serves the same inputs without retraining: the
	// first batch already sees THT hits.
	k, _ := service.KindByName("lu")
	tasks := make([]service.Task, 4)
	for i := range tasks {
		tasks[i] = service.Task{Kind: "lu", Input: service.Input(k, uint64(i), 1)}
	}
	_, g, err := e2.Do(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if g.MemoTHT == 0 {
		t.Fatalf("warm-started engine executed everything: %+v", g)
	}
}

// TestServeBaseline checks a disabled spec serves without ATM and
// rejects snapshots.
func TestServeBaseline(t *testing.T) {
	e, info := Serve(Baseline(), RunOptions{}, service.Config{Workers: 1})
	defer e.Close()
	if info.WarmStart || e.Memoizing() {
		t.Fatalf("baseline serve: %+v memoizing=%v", info, e.Memoizing())
	}
	if err := e.Snapshot(); !errors.Is(err, service.ErrNoPersistence) {
		t.Fatalf("baseline snapshot: %v", err)
	}
}

// TestServeRecoverSalvage damages the chain's tail and serves under
// -recover salvage: the engine must come up warm from the valid prefix.
func TestServeRecoverSalvage(t *testing.T) {
	chain := filepath.Join(t.TempDir(), "svc.atmchain")
	opt := RunOptions{SnapshotChain: chain, Sync: persist.SyncOff}
	e1, _ := Serve(Dynamic(true), opt, service.Config{Workers: 1})
	serveTasks(t, e1, "lu", 4, 30)
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: append garbage that breaks the last record framing.
	f, err := os.OpenFile(chain, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Strict refuses (serves cold, error surfaced)...
	eStrict, infoStrict := Serve(Dynamic(true), opt, service.Config{Workers: 1})
	eStrict.Close()
	if infoStrict.SnapshotErr == nil || infoStrict.WarmStart {
		t.Fatalf("strict on torn chain: %+v", infoStrict)
	}
	// ...salvage repairs and warm-starts.
	optS := opt
	optS.Recover = RecoverSalvage
	e2, info2 := Serve(Dynamic(true), optS, service.Config{Workers: 1})
	defer e2.Close()
	if info2.SnapshotErr != nil || !info2.WarmStart || !info2.Salvaged {
		t.Fatalf("salvage on torn chain: %+v", info2)
	}
	if info2.Recovery.BytesTruncated == 0 {
		t.Fatalf("salvage reported no truncation: %+v", info2.Recovery)
	}
}
