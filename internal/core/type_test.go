package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"testing"

	"atm/internal/region"
	"atm/internal/taskrt"
)

// TestNewTypeNumbersInOrder: types NewType makes are numbered 0, 1, 2 in
// the order they are made, and Stats lists them in that order, as it
// lists a runtime's registrations.
func TestNewTypeNumbersInOrder(t *testing.T) {
	memo := New(Config{Mode: ModeDynamic})
	names := []string{"svc/c", "svc/a", "acme/b"}
	for i, name := range names {
		ty := memo.NewType(name)
		if ty.id != i || ty.name != name {
			t.Fatalf("NewType(%q) = type %d %q, want %d", name, ty.id, ty.name, i)
		}
		if ty.tauMax != taskrt.DefaultTauMax || ty.lTraining != taskrt.DefaultLTraining {
			t.Errorf("NewType(%q): τmax %v, L_training %d; want the defaults", name, ty.tauMax, ty.lTraining)
		}
	}
	st := memo.Stats()
	if len(st.Types) != len(names) {
		t.Fatalf("Stats lists %d types, want %d", len(st.Types), len(names))
	}
	for i, ty := range st.Types {
		if ty.Name != names[i] {
			t.Errorf("Stats type %d is %q, want %q", i, ty.Name, names[i])
		}
	}
}

// TestNewTypeInstallsRestoredSection: a restored section installs when
// NewType makes its type, so RestoredEntries counts it from then, and
// the type hits at once.
func TestNewTypeInstallsRestoredSection(t *testing.T) {
	cfg := Config{Mode: ModeStatic}
	cold := New(cfg)
	x, y := cold.NewType("x"), cold.NewType("y")
	var tasks []ServeTask
	for i, ty := range []*Type{x, y, y} {
		tasks = append(tasks, ServeTask{Type: ty, Ins: []region.Region{mkInput(i)}, Outs: []region.Region{region.NewFloat64(16)}, Run: doubleRegions})
	}
	if _, ok := cold.Serve(tasks, admitAll); !ok {
		t.Fatal("Serve refused with admit always true")
	}
	snap, err := cold.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Restore(cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	if n := warm.RestoredEntries(); n != 0 {
		t.Fatalf("%d entries installed before any type was made", n)
	}
	wx := warm.NewType("x")
	if n := warm.RestoredEntries(); n != 1 {
		t.Fatalf("NewType(x) installed %d entries, want 1", n)
	}
	warm.NewType("y")
	if n := warm.RestoredEntries(); n != 3 {
		t.Fatalf("after NewType(y) %d entries are installed, want 3", n)
	}
	out := region.NewFloat64(16)
	if !warm.PeekType(wx, []region.Region{mkInput(0)}, []region.Region{out}) {
		t.Fatal("the restored entry of x missed")
	}

	// A runtime's registration installs the section the same way,
	// before the type runs any task.
	bound, err := Restore(cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: bound})
	defer rt.Close()
	rt.RegisterType(taskrt.TypeConfig{Name: "y", Memoize: true, Run: doubler})
	if n := bound.RestoredEntries(); n != 2 {
		t.Fatalf("RegisterType(y) installed %d entries, want 2", n)
	}
}

// TestNewTypeSharesRuntimeType: NewType and a bound runtime's
// RegisterType of one name give one type, in either order. A type made
// before the runtime binds has two stats shards, which the runtime's
// four workers share, and its counts stay exact.
func TestNewTypeSharesRuntimeType(t *testing.T) {
	const n = 200
	memo := New(Config{Mode: ModeStatic})
	x := memo.NewType("x")
	rt := taskrt.New(taskrt.Config{Workers: 4, Memoizer: memo})
	defer rt.Close()
	tx := rt.RegisterType(taskrt.TypeConfig{Name: "x", Memoize: true, Run: doubler})
	if tx.MemoType() != x {
		t.Fatal("RegisterType(x) after NewType(x) made a second type")
	}
	ty := rt.RegisterType(taskrt.TypeConfig{Name: "y", Memoize: true, Run: doubler})
	if memo.NewType("y") != ty.MemoType() {
		t.Fatal("NewType(y) after RegisterType(y) made a second type")
	}
	if len(x.shards) != 2 {
		t.Fatalf("a type made before the runtime bound has %d shards, want 2", len(x.shards))
	}
	for i := 0; i < n; i++ {
		rt.Submit(tx, taskrt.In(mkInput(i%50)), taskrt.Out(region.NewFloat64(16)))
	}
	rt.Wait()
	st := memo.Stats()
	if len(st.Types) != 2 {
		t.Fatalf("Stats lists %d types, want 2: %+v", len(st.Types), st.Types)
	}
	if s := st.Types[0]; s.Name != "x" || s.Tasks != n || s.Executed+s.MemoizedTHT+s.MemoizedIKT != n {
		t.Fatalf("x's counts are not exact over %d tasks: %+v", n, s)
	}
}

// panics reports whether f panics.
func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// registerSameTwice registers "same" twice on a runtime bound to memo,
// runs one task through each registration and waits. Both
// registrations share one type, which it checks.
func registerSameTwice(t *testing.T, memo *ATM) *taskrt.Runtime {
	t.Helper()
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo})
	cfg := taskrt.TypeConfig{Name: "same", Memoize: true, Run: doubler}
	t1, t2 := rt.RegisterType(cfg), rt.RegisterType(cfg)
	if t1.MemoType() != t2.MemoType() {
		t.Fatal("two registrations of one name made two types")
	}
	rt.Submit(t1, taskrt.In(mkInput(1)), taskrt.Out(region.NewFloat64(16)))
	rt.Submit(t2, taskrt.In(mkInput(2)), taskrt.Out(region.NewFloat64(16)))
	rt.Wait()
	return rt
}

// TestTypeRegistrationByName: a name has one type per engine. A
// repeated registration with the same τmax and L_training shares it;
// one with different parameters panics, at RegisterType and at NewType
// (which takes the defaults).
func TestTypeRegistrationByName(t *testing.T) {
	memo := New(Config{Mode: ModeStatic})
	rt := registerSameTwice(t, memo)
	defer rt.Close()
	if rt.RegisterType(taskrt.TypeConfig{Name: "same", Memoize: true, Run: doubler}).MemoType() != memo.NewType("same") {
		t.Fatal("NewType(same) after RegisterType(same) made a second type")
	}
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"RegisterType τmax", func() { rt.RegisterType(taskrt.TypeConfig{Name: "same", Memoize: true, TauMax: 0.05, Run: doubler}) }},
		{"RegisterType L_training", func() { rt.RegisterType(taskrt.TypeConfig{Name: "same", Memoize: true, LTraining: 3, Run: doubler}) }},
		{"NewType", func() {
			rt.RegisterType(taskrt.TypeConfig{Name: "tuned", Memoize: true, LTraining: 3, Run: doubler})
			memo.NewType("tuned")
		}},
	} {
		if !panics(c.f) {
			t.Errorf("%s: a registration with other training parameters did not panic", c.name)
		}
	}
	if st := memo.Stats(); len(st.Types) != 2 {
		t.Errorf("Stats lists %d types, want same and tuned: %+v", len(st.Types), st.Types)
	}
}

// TestRegistrationRacesSaves: a runtime's master registers types and
// runs their tasks while a handler goroutine makes types with NewType
// and serves them, each side also registering the names the other
// registers, and a saver takes delta saves and, every fifth save, a
// full snapshot. Every name gets one type, every save has one section
// or row per name, and the last full snapshot plus the deltas after it
// restore the live table. Run with -race.
func TestRegistrationRacesSaves(t *testing.T) {
	const n = 200
	cfg := Config{Mode: ModeStatic}
	memo := New(cfg)
	memo.EnableDeltaTracking()
	rt := taskrt.New(taskrt.Config{Workers: 2, Memoizer: memo})
	defer rt.Close()
	base, err := memo.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var deltas []*Delta
	oneEach := func(what string, names []string) {
		if len(slices.Compact(slices.Sorted(slices.Values(names)))) != len(names) {
			t.Errorf("%s repeats a name: %v", what, names)
		}
	}
	stop := make(chan struct{})
	saverDone := make(chan struct{})
	go func() {
		defer close(saverDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%5 == 4 {
				snap, err := memo.Snapshot()
				if err != nil {
					t.Error(err)
					return
				}
				var names []string
				for _, sec := range snap.Types {
					names = append(names, sec.Name)
				}
				oneEach("a snapshot", names)
				base, deltas = snap, nil
				continue
			}
			d, err := memo.SnapshotDelta()
			if err != nil {
				t.Error(err)
				return
			}
			var names []string
			for _, td := range d.Types {
				names = append(names, td.Name)
			}
			oneEach("a delta", names)
			deltas = append(deltas, d)
		}
	}()

	var wg sync.WaitGroup
	served := make([]*Type, n)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range served {
			served[i] = memo.NewType(fmt.Sprintf("shared/%d", i))
			ty := memo.NewType(fmt.Sprintf("svc/%d", i))
			tasks := []ServeTask{
				{Type: ty, Ins: []region.Region{mkInput(i)}, Outs: []region.Region{region.NewFloat64(16)}, Run: doubleRegions},
				{Type: served[i], Ins: []region.Region{mkInput(1000 + i)}, Outs: []region.Region{region.NewFloat64(16)}, Run: doubleRegions},
			}
			if _, ok := memo.Serve(tasks, admitAll); !ok {
				t.Error("Serve refused with admit always true")
			}
		}
	}()
	registered := make([]*taskrt.TaskType, n)
	for i := range registered {
		registered[i] = rt.RegisterType(taskrt.TypeConfig{Name: fmt.Sprintf("shared/%d", i), Memoize: true, Run: doubler})
		own := rt.RegisterType(taskrt.TypeConfig{Name: fmt.Sprintf("rt/%d", i), Memoize: true, Run: doubler})
		rt.Submit(own, taskrt.In(mkInput(i)), taskrt.Out(region.NewFloat64(16)))
		rt.Submit(registered[i], taskrt.In(mkInput(2000+i)), taskrt.Out(region.NewFloat64(16)))
	}
	wg.Wait()
	rt.Wait()
	close(stop)
	<-saverDone
	for i := range registered {
		if registered[i].MemoType() != served[i] {
			t.Fatalf("shared/%d has two types", i)
		}
	}

	last, err := memo.SnapshotDelta()
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RestoreChain(cfg, base, append(deltas, last))
	if err != nil {
		t.Fatal(err)
	}
	live, err := memo.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(live.Types) != 3*n {
		t.Fatalf("the live engine has %d types, want %d", len(live.Types), 3*n)
	}
	for _, sec := range live.Types {
		warm.NewType(sec.Name)
	}
	restored, err := warm.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	entriesByName := func(s *Snapshot) map[string][]entryID {
		m := make(map[string][]entryID, len(s.Types))
		for _, sec := range s.Types {
			for _, e := range sec.Entries {
				m[sec.Name] = append(m[sec.Name], entryID{e.Key, e.Level, e.Provider})
			}
			slices.SortFunc(m[sec.Name], func(a, b entryID) int {
				return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.provider, b.provider))
			})
		}
		return m
	}
	want, got := entriesByName(live), entriesByName(restored)
	if len(got) != len(want) {
		t.Fatalf("the chain restores %d types with entries, the live table has %d", len(got), len(want))
	}
	for name, ids := range want {
		if !slices.Equal(got[name], ids) {
			t.Errorf("%s: the chain restores %v, the live table holds %v", name, got[name], ids)
		}
	}
}
