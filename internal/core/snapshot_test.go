package core

import (
	"errors"
	"testing"

	"atm/internal/region"
	"atm/internal/sampling"
	"atm/internal/taskrt"
)

// mkInput builds a deterministic 16-element float64 region seeded by v.
func mkInput(v int) *region.Float64 {
	in := region.NewFloat64(16)
	for i := range in.Data {
		in.Data[i] = float64(v*100+i) * 1.5
	}
	return in
}

func TestSnapshotRestoreServesImmediateHits(t *testing.T) {
	// Cold run: execute 8 distinct tasks under static ATM.
	cold := New(Config{Mode: ModeStatic})
	rt := taskrt.New(taskrt.Config{Workers: 2, Memoizer: cold})
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: doubler})
	coldOuts := make([]*region.Float64, 8)
	for v := range coldOuts {
		coldOuts[v] = region.NewFloat64(16)
		rt.Submit(tt, taskrt.In(mkInput(v)), taskrt.Out(coldOuts[v]))
	}
	rt.Wait()
	snap, err := cold.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rt.Close()
	if got := len(snap.Types); got != 1 {
		t.Fatalf("sections: %d", got)
	}
	if got := len(snap.Types[0].Entries); got != 8 {
		t.Fatalf("snapshot entries: %d", got)
	}

	// Warm run: a fresh engine in a fresh runtime must serve every task
	// from the restored THT without executing a single body.
	warm, err := Restore(Config{Mode: ModeStatic}, snap)
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
	warmOuts := make([]*region.Float64, 8)
	for v := range warmOuts {
		warmOuts[v] = region.NewFloat64(16)
		rt2.Submit(tt2, taskrt.In(mkInput(v)), taskrt.Out(warmOuts[v]))
	}
	rt2.Wait()
	if executed != 0 {
		t.Fatalf("warm run executed %d bodies", executed)
	}
	ts := warm.Stats().Types[0]
	if ts.MemoizedTHT != 8 {
		t.Fatalf("warm run must hit the restored THT: %+v", ts)
	}
	if warm.RestoredEntries() != 8 {
		t.Fatalf("restored entries: %d", warm.RestoredEntries())
	}
	for v := range warmOuts {
		if !warmOuts[v].EqualContents(coldOuts[v]) {
			t.Fatalf("warm output %d diverges from cold run", v)
		}
	}
}

func TestSnapshotRestoreIndependentOfRegistrationOrder(t *testing.T) {
	// Hash keys are seeded by the type NAME, not the runtime-assigned
	// dense ID: a warm run that registers its types in a different order
	// must still hit.
	cold := New(Config{Mode: ModeStatic})
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: cold})
	ta := rt.RegisterType(taskrt.TypeConfig{Name: "alpha", Memoize: true, Run: doubler})
	tb := rt.RegisterType(taskrt.TypeConfig{Name: "beta", Memoize: true, Run: doubler})
	rt.Submit(ta, taskrt.In(mkInput(1)), taskrt.Out(region.NewFloat64(16)))
	rt.Submit(tb, taskrt.In(mkInput(2)), taskrt.Out(region.NewFloat64(16)))
	rt.Wait()
	snap, err := cold.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rt.Close()

	warm, err := Restore(Config{Mode: ModeStatic}, snap)
	if err != nil {
		t.Fatal(err)
	}
	rt2 := taskrt.New(taskrt.Config{Workers: 1, Memoizer: warm})
	defer rt2.Close()
	// Reversed registration order: beta now has alpha's old dense ID.
	tb2 := rt2.RegisterType(taskrt.TypeConfig{Name: "beta", Memoize: true, Run: doubler})
	ta2 := rt2.RegisterType(taskrt.TypeConfig{Name: "alpha", Memoize: true, Run: doubler})
	rt2.Submit(tb2, taskrt.In(mkInput(2)), taskrt.Out(region.NewFloat64(16)))
	rt2.Submit(ta2, taskrt.In(mkInput(1)), taskrt.Out(region.NewFloat64(16)))
	rt2.Wait()
	for _, ts := range warm.Stats().Types {
		if ts.MemoizedTHT != 1 {
			t.Fatalf("type %s must hit across registration orders: %+v", ts.Name, ts)
		}
	}
}

// TestSnapshotRejectsDuplicateTypeNames: snapshot sections are keyed by
// name, so a snapshot never holds two sections of one name. A repeated
// registration of a name shares its type, and its entries save in the
// one section; a registration of the name with other training
// parameters is rejected, by a panic, and adds no section.
func TestSnapshotRejectsDuplicateTypeNames(t *testing.T) {
	memo := New(Config{Mode: ModeStatic})
	rt := registerSameTwice(t, memo)
	defer rt.Close()
	if !panics(func() { rt.RegisterType(taskrt.TypeConfig{Name: "same", Memoize: true, LTraining: 3, Run: doubler}) }) {
		t.Fatal("a registration of same with other training parameters was not rejected")
	}
	snap, err := memo.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Types) != 1 || snap.Types[0].Name != "same" || len(snap.Types[0].Entries) != 2 {
		t.Fatalf("snapshot: %d sections, want one for same holding 2 entries: %+v", len(snap.Types), snap.Types)
	}
}

func TestRestoreRejectsFingerprintMismatch(t *testing.T) {
	memo := New(Config{Mode: ModeStatic, Seed: 1})
	snap, err := memo.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Mode: ModeStatic, Seed: 2},       // different hash seed
		{Mode: ModeDynamic, Seed: 1},      // different mode
		{Mode: ModeStatic, Seed: 1, M: 4}, // different table shape
	} {
		if _, err := Restore(cfg, snap); !errors.Is(err, ErrSnapshotConfig) {
			t.Fatalf("cfg %+v: want ErrSnapshotConfig, got %v", cfg, err)
		}
	}
	// The exact config restores.
	if _, err := Restore(Config{Mode: ModeStatic, Seed: 1}, snap); err != nil {
		t.Fatalf("identical config must restore: %v", err)
	}
}

func TestSnapshotRestoreDynamicResumesSteady(t *testing.T) {
	cold := New(Config{Mode: ModeDynamic})
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: cold})
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, TauMax: 0.01, LTraining: 3, Run: doubler})
	in := mkInput(7)
	for i := 0; i < 10; i++ {
		rt.Submit(tt, taskrt.In(in), taskrt.Out(region.NewFloat64(16)))
	}
	rt.Wait()
	level, steady := cold.ChosenLevel(tt)
	if !steady {
		t.Fatal("training must have completed")
	}
	snap, err := cold.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rt.Close()

	warm, err := Restore(Config{Mode: ModeDynamic}, snap)
	if err != nil {
		t.Fatal(err)
	}
	rt2 := taskrt.New(taskrt.Config{Workers: 1, Memoizer: warm})
	defer rt2.Close()
	tt2 := rt2.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, TauMax: 0.01, LTraining: 3, Run: doubler})
	rt2.Submit(tt2, taskrt.In(in), taskrt.Out(region.NewFloat64(16)))
	rt2.Wait()
	level2, steady2 := warm.ChosenLevel(tt2)
	if !steady2 || level2 != level {
		t.Fatalf("restored type must resume steady at level %d: level=%d steady=%v", level, level2, steady2)
	}
	ts := warm.Stats().Types[0]
	if ts.MemoizedTHT != 1 || ts.Executed != 0 {
		t.Fatalf("warm dynamic run must memoize without retraining: %+v", ts)
	}
}

func TestSnapshotCarriesUnclaimedSections(t *testing.T) {
	// A sweep alternating workloads must not lose the idle workload's
	// warm state: sections whose type never registers in this process
	// round-trip through the next snapshot untouched.
	cold := New(Config{Mode: ModeStatic})
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: cold})
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "seen", Memoize: true, Run: doubler})
	rt.Submit(tt, taskrt.In(mkInput(3)), taskrt.Out(region.NewFloat64(16)))
	rt.Wait()
	snap, err := cold.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rt.Close()
	snap.Types = append(snap.Types, TypeSnapshot{
		Name: "unseen", Steady: true, Level: sampling.MaxPLevel,
		Entries: []EntrySnapshot{{Key: 42, Level: 15, Outs: []region.Region{mkInput(9)}}},
	})

	warm, err := Restore(Config{Mode: ModeStatic}, snap)
	if err != nil {
		t.Fatal(err)
	}
	rt2 := taskrt.New(taskrt.Config{Workers: 1, Memoizer: warm})
	tt2 := rt2.RegisterType(taskrt.TypeConfig{Name: "seen", Memoize: true, Run: doubler})
	rt2.Submit(tt2, taskrt.In(mkInput(3)), taskrt.Out(region.NewFloat64(16)))
	rt2.Wait()
	snap2, err := warm.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rt2.Close()
	var carried *TypeSnapshot
	for i := range snap2.Types {
		if snap2.Types[i].Name == "unseen" {
			carried = &snap2.Types[i]
		}
	}
	if carried == nil {
		t.Fatal("unclaimed section must carry through")
	}
	if len(carried.Entries) != 1 || carried.Entries[0].Key != 42 {
		t.Fatalf("carried section mutated: %+v", carried)
	}
}
