package service

import (
	"math"
	"testing"
)

// TestKindsCatalog pins the catalog's shape: stable order, positive
// arities, unique names, and the memoizable/overload split.
func TestKindsCatalog(t *testing.T) {
	ks := Kinds()
	if len(ks) == 0 {
		t.Fatal("empty catalog")
	}
	seen := map[string]bool{}
	for i, k := range ks {
		if i > 0 && !(ks[i-1].Name < k.Name) {
			t.Errorf("catalog not sorted at %q", k.Name)
		}
		if seen[k.Name] {
			t.Errorf("duplicate kind %q", k.Name)
		}
		seen[k.Name] = true
		if k.In <= 0 || k.Out <= 0 || k.Fn == nil {
			t.Errorf("kind %q: bad shape In=%d Out=%d Fn=%t", k.Name, k.In, k.Out, k.Fn != nil)
		}
	}
	if k, ok := KindByName("spin"); !ok || k.Memoize {
		t.Errorf("spin must exist and be non-memoizable (ok=%v)", ok)
	}
	for _, name := range []string{"blackscholes", "kmeans", "lu", "stencil", "swaptions"} {
		if k, ok := KindByName(name); !ok || !k.Memoize {
			t.Errorf("kind %q must exist and be memoizable (ok=%v)", name, ok)
		}
	}
	if _, ok := KindByName("nope"); ok {
		t.Error("KindByName accepted unknown name")
	}
}

// TestKernelsTotalAndDeterministic runs every kernel on generated and
// adversarial inputs: outputs must be finite and reproducible — the
// purity contract memoization relies on.
func TestKernelsTotalAndDeterministic(t *testing.T) {
	for _, k := range Kinds() {
		if k.Name == "spin" {
			continue // ~ms per call; covered by the engine overload tests
		}
		for _, in := range [][]float64{
			Input(k, 0, 1),
			Input(k, 123456, 99),
			make([]float64, k.In), // all zeros
			func() []float64 { // hostile: NaN/Inf/huge
				v := make([]float64, k.In)
				for i := range v {
					switch i % 3 {
					case 0:
						v[i] = math.NaN()
					case 1:
						v[i] = math.Inf(1)
					default:
						v[i] = -1e300
					}
				}
				return v
			}(),
		} {
			out1 := make([]float64, k.Out)
			out2 := make([]float64, k.Out)
			k.Fn(in, out1)
			k.Fn(in, out2)
			for i := range out1 {
				if math.IsNaN(out1[i]) || math.IsInf(out1[i], 0) {
					t.Errorf("%s: non-finite output[%d] = %v", k.Name, i, out1[i])
					break
				}
				if out1[i] != out2[i] {
					t.Errorf("%s: nondeterministic output[%d]: %v vs %v", k.Name, i, out1[i], out2[i])
					break
				}
			}
		}
	}
}

// TestKernelsAllocateNothing: every kernel of the catalog runs without
// allocating, so a miss on the handler path costs its kernel's
// arithmetic and no garbage.
func TestKernelsAllocateNothing(t *testing.T) {
	for _, k := range Kinds() {
		in, out := Input(k, 42, 7), make([]float64, k.Out)
		runs := 100
		if k.Name == "spin" {
			runs = 2 // ~ms per call
		}
		if n := testing.AllocsPerRun(runs, func() { k.Fn(in, out) }); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", k.Name, n)
		}
	}
}

func TestInputDeterministic(t *testing.T) {
	k, _ := KindByName("lu")
	a := Input(k, 7, 1)
	b := Input(k, 7, 1)
	c := Input(k, 8, 1)
	d := Input(k, 7, 2)
	if len(a) != k.In {
		t.Fatalf("len = %d, want %d", len(a), k.In)
	}
	same := func(x, y []float64) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("same (key, seed) produced different inputs")
	}
	if same(a, c) || same(a, d) {
		t.Error("different key or seed produced identical inputs")
	}
	for i, v := range a {
		if !(v >= 0 && v < 1) {
			t.Fatalf("input[%d] = %v outside [0,1)", i, v)
		}
	}
}

// TestDefaultMixValid pins what the benchmark's stream builder relies
// on: every name in the mix is a known memoizable kind (so spin, the
// overload kind, is out), and every weight is positive.
func TestDefaultMixValid(t *testing.T) {
	mix := DefaultMix()
	if len(mix) == 0 {
		t.Fatal("empty default mix")
	}
	for name, w := range mix {
		if k, ok := KindByName(name); !ok || !k.Memoize {
			t.Errorf("mix names %q: known=%v, want a known memoizable kind", name, ok)
		}
		if !(w > 0) {
			t.Errorf("mix weight for %q is %v, want > 0", name, w)
		}
	}
}
