package core

import (
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
}

// TestNewTypeAndBindRuntimeExclude: a runtime numbers its own types, so
// NewType panics on an engine a runtime has bound, and BindRuntime
// panics on an engine NewType has made a type on.
func TestNewTypeAndBindRuntimeExclude(t *testing.T) {
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	bound := New(Config{Mode: ModeStatic})
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: bound})
	defer rt.Close()
	if !panics(func() { bound.NewType("x") }) {
		t.Error("NewType on a bound engine did not panic")
	}
	if st := bound.Stats(); len(st.Types) != 0 {
		t.Errorf("the refused NewType left a type: %+v", st.Types)
	}

	own := New(Config{Mode: ModeStatic})
	own.NewType("x")
	if !panics(func() { taskrt.New(taskrt.Config{Workers: 1, Memoizer: own}).Close() }) {
		t.Error("BindRuntime after NewType did not panic")
	}
}
