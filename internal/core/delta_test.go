package core

import (
	"errors"
	"testing"

	"atm/internal/region"
	"atm/internal/taskrt"
)

// runDistinct submits n distinct doubler tasks with input values
// [from, from+n) and waits for them.
func runDistinct(rt *taskrt.Runtime, tt *taskrt.TaskType, from, n int) []*region.Float64 {
	outs := make([]*region.Float64, n)
	for i := range outs {
		outs[i] = region.NewFloat64(16)
		rt.Submit(tt, taskrt.In(mkInput(from+i)), taskrt.Out(outs[i]))
	}
	rt.Wait()
	return outs
}

func TestSnapshotDeltaRequiresTracking(t *testing.T) {
	memo := New(Config{Mode: ModeStatic})
	if _, err := memo.SnapshotDelta(); !errors.Is(err, ErrNotTracking) {
		t.Fatalf("want ErrNotTracking, got %v", err)
	}
	memo.EnableDeltaTracking()
	if !memo.DeltaTracking() {
		t.Fatal("tracking must report enabled")
	}
	if _, err := memo.SnapshotDelta(); err != nil {
		t.Fatalf("tracked delta: %v", err)
	}
}

func TestSnapshotDeltaCapturesOnlyNewState(t *testing.T) {
	memo := New(Config{Mode: ModeStatic})
	memo.EnableDeltaTracking()
	rt := taskrt.New(taskrt.Config{Workers: 2, Memoizer: memo})
	defer rt.Close()
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: doubler})

	runDistinct(rt, tt, 0, 4)
	d1, err := memo.SnapshotDelta()
	if err != nil {
		t.Fatal(err)
	}
	if len(d1.Entries) != 4 {
		t.Fatalf("first delta entries: %d", len(d1.Entries))
	}
	if len(d1.Types) != 1 || !d1.Types[0].HasMeta || !d1.Types[0].Steady {
		t.Fatalf("first delta must carry the fresh type's metadata: %+v", d1.Types)
	}

	// Four more distinct tasks: the second delta carries exactly them,
	// and the type reappears only as an entry target — its metadata did
	// not change since the save that recorded it.
	runDistinct(rt, tt, 4, 4)
	d2, err := memo.SnapshotDelta()
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Entries) != 4 {
		t.Fatalf("second delta entries: %d", len(d2.Entries))
	}
	if len(d2.Types) != 1 || d2.Types[0].HasMeta {
		t.Fatalf("unchanged metadata must not be re-saved: %+v", d2.Types)
	}

	// Nothing happened since: the third delta is empty.
	d3, err := memo.SnapshotDelta()
	if err != nil {
		t.Fatal(err)
	}
	if len(d3.Types) != 0 || len(d3.Entries) != 0 {
		t.Fatalf("idle delta must be empty: %+v", d3)
	}
}

func TestFullSnapshotSupersedesDeltaState(t *testing.T) {
	memo := New(Config{Mode: ModeStatic})
	memo.EnableDeltaTracking()
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo})
	defer rt.Close()
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: doubler})
	runDistinct(rt, tt, 0, 3)
	if _, err := memo.Snapshot(); err != nil {
		t.Fatal(err)
	}
	d, err := memo.SnapshotDelta()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Types) != 0 || len(d.Entries) != 0 {
		t.Fatalf("delta after a full save must be empty: %d types, %d entries", len(d.Types), len(d.Entries))
	}
}

func TestDeltaChainRestoreMatchesFullSnapshot(t *testing.T) {
	cfg := Config{Mode: ModeStatic}
	memo := New(cfg)
	memo.EnableDeltaTracking()
	base, err := memo.Snapshot() // empty chain base, taken before any traffic
	if err != nil {
		t.Fatal(err)
	}
	rt := taskrt.New(taskrt.Config{Workers: 2, Memoizer: memo})
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: doubler})
	coldOuts := runDistinct(rt, tt, 0, 4)
	d1, err := memo.SnapshotDelta()
	if err != nil {
		t.Fatal(err)
	}
	coldOuts = append(coldOuts, runDistinct(rt, tt, 4, 4)...)
	d2, err := memo.SnapshotDelta()
	if err != nil {
		t.Fatal(err)
	}
	full, err := memo.Snapshot() // the whole-table path, for comparison
	if err != nil {
		t.Fatal(err)
	}
	rt.Close()

	restoreAndRun := func(build func() (*ATM, error)) []*region.Float64 {
		t.Helper()
		warm, err := build()
		if err != nil {
			t.Fatal(err)
		}
		rt := taskrt.New(taskrt.Config{Workers: 2, Memoizer: warm})
		defer rt.Close()
		executed := 0
		tt := rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: func(task *taskrt.Task) {
			executed++
			doubler(task)
		}})
		outs := runDistinct(rt, tt, 0, 8)
		if executed != 0 {
			t.Fatalf("warm run executed %d bodies", executed)
		}
		if warm.RestoredEntries() != 8 {
			t.Fatalf("restored entries: %d", warm.RestoredEntries())
		}
		return outs
	}

	viaChain := restoreAndRun(func() (*ATM, error) {
		warm, err := Restore(cfg, base)
		if err != nil {
			return nil, err
		}
		for _, d := range []*Delta{d1, d2} {
			if err := warm.ApplyDelta(d); err != nil {
				return nil, err
			}
		}
		return warm, nil
	})
	viaFull := restoreAndRun(func() (*ATM, error) { return Restore(cfg, full) })

	for i := range coldOuts {
		if !viaChain[i].EqualContents(coldOuts[i]) {
			t.Fatalf("chain-restored output %d diverges from the cold run", i)
		}
		if !viaFull[i].EqualContents(coldOuts[i]) {
			t.Fatalf("full-restored output %d diverges from the cold run", i)
		}
	}
}

func TestWarmRunSavesEmptyDelta(t *testing.T) {
	// The sublinear guarantee: a warm repetition that adds nothing new
	// must save a (near-)empty delta — restored entries bypass the
	// insert log and verbatim-installed metadata stays clean.
	cfg := Config{Mode: ModeStatic}
	cold := New(cfg)
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: cold})
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: doubler})
	runDistinct(rt, tt, 0, 6)
	snap, err := cold.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rt.Close()

	warm, err := Restore(cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	warm.EnableDeltaTracking()
	rt2 := taskrt.New(taskrt.Config{Workers: 1, Memoizer: warm})
	defer rt2.Close()
	tt2 := rt2.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: doubler})
	runDistinct(rt2, tt2, 0, 6) // all hits
	d, err := warm.SnapshotDelta()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Types) != 0 || len(d.Entries) != 0 {
		t.Fatalf("all-hit warm run must save an empty delta: %d types, %d entries", len(d.Types), len(d.Entries))
	}
}

func TestApplyDeltaRejectsLiveType(t *testing.T) {
	cfg := Config{Mode: ModeStatic}
	memo := New(cfg)
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo})
	defer rt.Close()
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: doubler})
	// The type goes live (claims its state, consuming any pending
	// section) when its first task runs; only then is a late delta
	// unmergeable.
	rt.Submit(tt, taskrt.In(mkInput(1)), taskrt.Out(region.NewFloat64(16)))
	rt.Wait()
	d := &Delta{Fingerprint: Fingerprint(cfg), Types: []TypeDelta{{Name: "double", HasMeta: true, Steady: true, Level: 15}}}
	if err := memo.ApplyDelta(d); !errors.Is(err, ErrDeltaLive) {
		t.Fatalf("want ErrDeltaLive, got %v", err)
	}
	// A delta for a type this engine never registered still applies.
	d2 := &Delta{Fingerprint: Fingerprint(cfg), Types: []TypeDelta{{Name: "other", HasMeta: true, Steady: true, Level: 15}}}
	if err := memo.ApplyDelta(d2); err != nil {
		t.Fatal(err)
	}
}

func TestApplyDeltaRejectsFingerprintMismatch(t *testing.T) {
	memo := New(Config{Mode: ModeStatic, Seed: 1})
	d := &Delta{Fingerprint: Fingerprint(Config{Mode: ModeStatic, Seed: 2})}
	if err := memo.ApplyDelta(d); !errors.Is(err, ErrSnapshotConfig) {
		t.Fatalf("want ErrSnapshotConfig, got %v", err)
	}
}

func TestApplyDeltaRejectsBadTypeIndex(t *testing.T) {
	cfg := Config{Mode: ModeStatic}
	memo := New(cfg)
	d := &Delta{
		Fingerprint: Fingerprint(cfg),
		Types:       []TypeDelta{{Name: "double"}},
		Entries:     []DeltaEntry{{Type: 3}},
	}
	if err := memo.ApplyDelta(d); err == nil {
		t.Fatal("out-of-range entry type index must be rejected")
	}
}

func TestDynamicTrainingProgressDirtiesMetadata(t *testing.T) {
	memo := New(Config{Mode: ModeDynamic})
	memo.EnableDeltaTracking()
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo})
	defer rt.Close()
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, TauMax: 0.01, LTraining: 100, Run: doubler})
	in := mkInput(1)
	rt.Submit(tt, taskrt.In(in), taskrt.Out(region.NewFloat64(16)))
	rt.Wait()
	if _, err := memo.SnapshotDelta(); err != nil {
		t.Fatal(err)
	}
	// Two more identical tasks: training hits bump the successes
	// counter, which the next delta must re-record.
	rt.Submit(tt, taskrt.In(in), taskrt.Out(region.NewFloat64(16)))
	rt.Submit(tt, taskrt.In(in), taskrt.Out(region.NewFloat64(16)))
	rt.Wait()
	d, err := memo.SnapshotDelta()
	if err != nil {
		t.Fatal(err)
	}
	var meta *TypeDelta
	for i := range d.Types {
		if d.Types[i].Name == "double" && d.Types[i].HasMeta {
			meta = &d.Types[i]
		}
	}
	if meta == nil {
		t.Fatalf("training progress must dirty the type metadata: %+v", d.Types)
	}
	if meta.Steady || meta.Successes == 0 {
		t.Fatalf("delta metadata must carry the in-training successes count: %+v", meta)
	}
}

// TestLendDeltaSharesAndReleases: a lent delta carries what
// SnapshotDelta's would, its regions are the table entries' own (no
// copy), and the log's references are dropped once fn returns — the
// table's reference is then each entry's only one.
func TestLendDeltaSharesAndReleases(t *testing.T) {
	deltaOf := func(lend bool) (d *Delta, memo *ATM) {
		memo = New(Config{Mode: ModeStatic})
		memo.EnableDeltaTracking()
		rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo})
		defer rt.Close()
		tt := rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: doubler})
		runDistinct(rt, tt, 0, 5)
		var err error
		if lend {
			err = memo.LendDelta(func(lent *Delta) error {
				d = lent
				memo.THT().forEach(func(e *Entry) {
					// forEach holds a reference of its own while it visits.
					if got := e.refs.Load(); got != 3 {
						t.Errorf("entry %#x: %d references during the loan, want 3 (table, log, visitor)", e.Key, got)
					}
				})
				return nil
			})
		} else {
			d, err = memo.SnapshotDelta()
		}
		if err != nil {
			t.Fatal(err)
		}
		return d, memo
	}
	owned, _ := deltaOf(false)
	lent, memo := deltaOf(true)
	if len(lent.Entries) != 5 || len(lent.Entries) != len(owned.Entries) || len(lent.Types) != len(owned.Types) {
		t.Fatalf("lent delta: %d entries / %d types, owned: %d / %d", len(lent.Entries), len(lent.Types), len(owned.Entries), len(owned.Types))
	}
	byKey := map[uint64]*Entry{}
	memo.THT().forEach(func(e *Entry) { byKey[e.Key] = e })
	for i, de := range lent.Entries {
		e := byKey[de.Key]
		if e == nil || len(de.Outs) != 1 || de.Outs[0] != e.Outs[0] {
			t.Fatalf("lent entry %d does not share its table entry's output region", i)
		}
		if !de.Outs[0].EqualContents(owned.Entries[i].Outs[0]) && owned.Entries[i].Key == de.Key {
			t.Errorf("lent entry %d differs from the owned delta's", i)
		}
		if got := e.refs.Load(); got != 1 {
			t.Errorf("entry %#x: %d references after the loan, want 1 (the table's)", e.Key, got)
		}
	}
	if got := memo.THT().DrainLog(); len(got) != 0 {
		t.Fatalf("the loan must have drained the log, found %d records", len(got))
	}
}

// TestDeltaResolvesTypeFilledAfterScan: a type registered and run
// between a delta's metadata scan and its log drain is past the end of
// the registry the scan read. Its first insert must ship in that delta
// (its log record is drained exactly once), under a meta-less row, and
// its metadata in the next.
func TestDeltaResolvesTypeFilledAfterScan(t *testing.T) {
	memo := New(Config{Mode: ModeStatic})
	memo.EnableDeltaTracking()
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo})
	defer rt.Close()
	early := rt.RegisterType(taskrt.TypeConfig{Name: "early", Memoize: true, Run: doubler})
	runDistinct(rt, early, 0, 2)
	if _, err := memo.SnapshotDelta(); err != nil {
		t.Fatal(err)
	}

	memo.deltaScanned = func() {
		late := rt.RegisterType(taskrt.TypeConfig{Name: "late", Memoize: true, Run: doubler})
		runDistinct(rt, late, 100, 1)
	}
	d, err := memo.SnapshotDelta()
	memo.deltaScanned = nil
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Entries) != 1 || len(d.Types) != 1 || d.Types[0].Name != "late" || d.Types[0].HasMeta {
		t.Fatalf("the racing insert must ship under a meta-less row: %d entries, types %+v", len(d.Entries), d.Types)
	}
	next, err := memo.SnapshotDelta()
	if err != nil {
		t.Fatal(err)
	}
	if len(next.Entries) != 0 || len(next.Types) != 1 || next.Types[0].Name != "late" || !next.Types[0].HasMeta {
		t.Fatalf("the next delta must carry only the type's metadata: %d entries, types %+v", len(next.Entries), next.Types)
	}
}

func TestDisableDeltaTrackingReleasesLog(t *testing.T) {
	memo := New(Config{Mode: ModeStatic})
	memo.EnableDeltaTracking()
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo})
	defer rt.Close()
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: doubler})
	runDistinct(rt, tt, 0, 3)
	memo.DisableDeltaTracking()
	if memo.DeltaTracking() {
		t.Fatal("tracking must report disabled")
	}
	if got := memo.THT().DrainLog(); len(got) != 0 {
		t.Fatalf("disable must have drained the log, found %d entries", len(got))
	}
	runDistinct(rt, tt, 3, 3)
	if got := memo.THT().DrainLog(); len(got) != 0 {
		t.Fatalf("inserts after disable must not be logged, found %d", len(got))
	}
}

// TestSnapshotDeltaRejectsDuplicateTypeNames: a delta never holds two
// type rows of one name. A repeated registration of a name shares its
// type, so the delta has one row for it, with both registrations'
// entries; a registration with other training parameters is rejected,
// by a panic, and adds no row.
func TestSnapshotDeltaRejectsDuplicateTypeNames(t *testing.T) {
	memo := New(Config{Mode: ModeStatic})
	memo.EnableDeltaTracking()
	rt := registerSameTwice(t, memo)
	defer rt.Close()
	if !panics(func() { rt.RegisterType(taskrt.TypeConfig{Name: "same", Memoize: true, TauMax: 0.05, Run: doubler}) }) {
		t.Fatal("a registration of same with other training parameters was not rejected")
	}
	d, err := memo.SnapshotDelta()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Types) != 1 || d.Types[0].Name != "same" || len(d.Entries) != 2 {
		t.Fatalf("delta: %d type rows and %d entries, want one row for same and 2 entries", len(d.Types), len(d.Entries))
	}
}
