package core

import (
	"math/rand"
	"slices"
	"testing"

	"atm/internal/region"
	"atm/internal/taskrt"
)

// TestTrimLogKeepsRecordsAfterTheScan: the full snapshot drops only the
// log records its scan saw the outcome of. An operation logged after a
// bucket's visit stays for the next delta, so a snapshot racing inserts
// neither loses one nor saves it twice.
func TestTrimLogKeepsRecordsAfterTheScan(t *testing.T) {
	tht := NewTHT(2, 4)
	tht.SetLogging(true)
	put := func(key uint64) {
		tht.Insert(&Entry{Key: key, Outs: []region.Region{region.NewFloat64(1)}})
	}
	for k := uint64(0); k < 6; k++ {
		put(k)
	}
	cuts := tht.forEach(func(*Entry) {})
	put(100) // bucket 0, after its visit
	put(101) // bucket 1
	tht.trimLog(cuts)
	var keys []uint64
	for _, r := range tht.DrainLog() {
		keys = append(keys, r.key)
		r.e.Release()
	}
	slices.Sort(keys)
	if !slices.Equal(keys, []uint64{100, 101}) {
		t.Fatalf("log after the trim holds %v, want the two post-scan inserts", keys)
	}
}

// TestTrimLogCutsEachBucketAtItsVisit pins forEach's per-bucket cut
// rule, which a full Snapshot relies on for inserts racing its scan. An
// insert into a bucket the scan has already read is not in the scan and
// stays logged for the next delta; an insert into a bucket the scan has
// yet to read is in the scan and trimmed with it. Either way it is
// saved exactly once.
func TestTrimLogCutsEachBucketAtItsVisit(t *testing.T) {
	tht := NewTHT(2, 8) // four buckets, keys land in key & 3
	tht.SetLogging(true)
	for k := uint64(0); k < 4; k++ {
		tht.Insert(entryWith(0, k, 15, float64(k)))
	}
	const behind, ahead = 4, 7 // buckets 0 and 3
	scanned := map[uint64]bool{}
	cuts := tht.forEach(func(e *Entry) {
		scanned[e.Key] = true
		if e.Key == 1 { // visiting bucket 1: bucket 0 is read, bucket 3 is not
			tht.Insert(entryWith(0, behind, 15, behind))
			tht.Insert(entryWith(0, ahead, 15, ahead))
		}
	})
	tht.trimLog(cuts)
	if scanned[behind] || !scanned[ahead] {
		t.Errorf("scan holds key %d: %v, key %d: %v; want only the insert ahead of the scan", behind, scanned[behind], ahead, scanned[ahead])
	}
	logged := map[uint64]bool{}
	for _, r := range tht.DrainLog() {
		logged[r.key] = true
		r.e.Release()
	}
	if len(logged) != 1 || !logged[behind] {
		t.Errorf("log left holds keys %v; want only %d, the insert behind the scan", logged, behind)
	}
}

// TestRestoredEntriesCountsResident: a chain whose delta removes some of
// its own inserts again (ring replacements logged as tombstones)
// restores fewer entries than it replays inserts, and RestoredEntries
// counts the resident ones — the entry count a re-snapshot holds.
func TestRestoredEntriesCountsResident(t *testing.T) {
	cfg := Config{Mode: ModeStatic, NBits: 1, M: 2} // 4 slots: most inserts evict
	memo := New(cfg)
	memo.EnableDeltaTracking()
	base, err := memo.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo})
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: doubler})
	runDistinct(rt, tt, 0, 16)
	d, err := memo.SnapshotDelta()
	rt.Close()
	if err != nil {
		t.Fatal(err)
	}
	_, _, inserts := d.Stats()
	if d.Tombstones() == 0 || inserts != 16 {
		t.Fatalf("want 16 inserts and some tombstones, got %d and %d", inserts, d.Tombstones())
	}
	warm, err := RestoreChain(cfg, base, []*Delta{d})
	if err != nil {
		t.Fatal(err)
	}
	wrt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: warm})
	defer wrt.Close()
	// The section installs when its type first runs a task.
	runDistinct(wrt, wrt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: doubler}), 15, 1)
	snap, err := warm.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	resident := 0
	for _, sec := range snap.Types {
		if sec.Name == "double" {
			resident = len(sec.Entries)
		}
	}
	if resident == 0 || warm.RestoredEntries() != int64(resident) {
		t.Fatalf("RestoredEntries %d, re-snapshot holds %d restored entries", warm.RestoredEntries(), resident)
	}
}

// TestRestoredEntriesCountsWhatABudgetKeeps restores 200 entries into a
// table whose budget holds about 26: RestoredEntries must count the
// entries the install left resident, not every one it replayed
// (admission rejects some and evicts residents for others).
func TestRestoredEntriesCountsWhatABudgetKeeps(t *testing.T) {
	cold := New(Config{Mode: ModeStatic})
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: cold})
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: doubler})
	for v := 0; v < 200; v++ {
		rt.Submit(tt, taskrt.In(mkInput(v)), taskrt.Out(region.NewFloat64(16)))
	}
	rt.Wait()
	rt.Close()
	snap, err := cold.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{0, 4 << 10} {
		warm, err := Restore(Config{Mode: ModeStatic, THTBudgetBytes: budget}, snap)
		if err != nil {
			t.Fatal(err)
		}
		rt2 := taskrt.New(taskrt.Config{Workers: 1, Memoizer: warm})
		rt2.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: doubler})
		st := warm.Stats()
		if got := warm.RestoredEntries(); got != st.THTEntries || got == 0 {
			t.Errorf("budget %d: RestoredEntries %d, resident entries %d", budget, got, st.THTEntries)
		}
		if budget != 0 && st.THTEntries >= 200 {
			t.Errorf("budget %d: all %d entries resident; the budget never bit", budget, st.THTEntries)
		}
		rt2.Close()
	}
}

// foldEntryOpsQuadratic is the original FoldEntryOps, which scans the
// output list per tombstone: the oracle the linear fold must match.
func foldEntryOpsQuadratic(ops []EntrySnapshot) []EntrySnapshot {
	out := make([]EntrySnapshot, 0, len(ops))
	for _, op := range ops {
		if !op.Tombstone {
			out = append(out, op)
			continue
		}
		for i := range out {
			if out[i].Key == op.Key && out[i].Level == op.Level && out[i].Provider == op.Provider {
				out = append(out[:i], out[i+1:]...)
				break
			}
		}
	}
	return out
}

// TestFoldEntryOpsMatchesQuadraticOracle folds random operation streams
// over a small identity space — repeated inserts of one identity,
// tombstones with and without a match, identities differing in one
// field only — and requires the linear fold to keep exactly the
// oracle's inserts, in order.
func TestFoldEntryOpsMatchesQuadraticOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 2000; iter++ {
		n := rng.Intn(40)
		ops := make([]EntrySnapshot, n)
		for i := range ops {
			ops[i] = EntrySnapshot{
				Key:       uint64(rng.Intn(4)),
				Level:     int8(rng.Intn(2)),
				Provider:  uint64(rng.Intn(2)),
				Tombstone: rng.Intn(3) == 0,
			}
			if !ops[i].Tombstone {
				ops[i].Outs = []region.Region{region.NewFloat64(1)} // a distinct region per insert
			}
		}
		want := foldEntryOpsQuadratic(slices.Clone(ops))
		got := FoldEntryOps(ops)
		if len(got) != len(want) {
			t.Fatalf("iter %d: fold kept %d ops, oracle %d", iter, len(got), len(want))
		}
		for i := range got {
			if got[i].Tombstone || got[i].Key != want[i].Key || got[i].Outs[0] != want[i].Outs[0] {
				t.Fatalf("iter %d: op %d differs from the oracle's", iter, i)
			}
		}
	}
}
