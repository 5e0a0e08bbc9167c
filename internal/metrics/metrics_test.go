package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"atm/internal/region"
)

func regs(xs ...float64) []region.Region {
	return []region.Region{&region.Float64{Data: xs}}
}

func TestChebyshevZeroOnEqual(t *testing.T) {
	f := func(xs []float64) bool {
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				xs[i] = 1
			}
		}
		return Chebyshev(regs(xs...), regs(xs...)) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChebyshevKnownValue(t *testing.T) {
	// correct = (10, -4), atm = (9, -4): num = 1, den = 10 -> 0.1.
	got := Chebyshev(regs(10, -4), regs(9, -4))
	if math.Abs(got-0.1) > 1e-15 {
		t.Fatalf("τ=%v want 0.1", got)
	}
}

func TestChebyshevUsesMaxNotSum(t *testing.T) {
	// Many small identical errors: τ must stay the per-component max,
	// unlike the accumulating Euclidean metric (the paper's argument for
	// Chebyshev in high output dimensionalities, §III-D).
	n := 10000
	correct := make([]float64, n)
	atm := make([]float64, n)
	for i := range correct {
		correct[i] = 100
		atm[i] = 100.5
	}
	got := Chebyshev(regs(correct...), regs(atm...))
	if math.Abs(got-0.005) > 1e-12 {
		t.Fatalf("τ=%v want 0.005 regardless of dimensionality", got)
	}
}

func TestChebyshevScaleInvariance(t *testing.T) {
	a, b := []float64{3, 1, -2}, []float64{3.1, 0.8, -2}
	t1 := Chebyshev(regs(a...), regs(b...))
	for i := range a {
		a[i] *= 1000
		b[i] *= 1000
	}
	t2 := Chebyshev(regs(a...), regs(b...))
	if math.Abs(t1-t2) > 1e-12 {
		t.Fatalf("τ must be scale invariant: %v vs %v", t1, t2)
	}
}

func TestChebyshevZeroDenominator(t *testing.T) {
	if got := Chebyshev(regs(0, 0), regs(0, 0)); got != 0 {
		t.Fatalf("0/0 must be 0, got %v", got)
	}
	if got := Chebyshev(regs(0, 0), regs(1, 0)); !math.IsInf(got, 1) {
		t.Fatalf("x/0 must be +Inf, got %v", got)
	}
}

func TestChebyshevMultipleRegions(t *testing.T) {
	correct := []region.Region{
		&region.Float64{Data: []float64{10}},
		&region.Int32{Data: []int32{5}},
	}
	atm := []region.Region{
		&region.Float64{Data: []float64{10}},
		&region.Int32{Data: []int32{3}},
	}
	// num = 2 (int region), den = 10 (float region) -> 0.2.
	if got := Chebyshev(correct, atm); math.Abs(got-0.2) > 1e-15 {
		t.Fatalf("τ=%v want 0.2", got)
	}
}

func TestEuclideanZeroOnEqualAndKnown(t *testing.T) {
	if Euclidean(regs(1, 2, 3), regs(1, 2, 3)) != 0 {
		t.Fatal("Er must be 0 on equal outputs")
	}
	// correct=(3,4), atm=(3,3): num=1, den=25 -> 0.04.
	if got := Euclidean(regs(3, 4), regs(3, 3)); math.Abs(got-0.04) > 1e-15 {
		t.Fatalf("Er=%v want 0.04", got)
	}
	if got := Euclidean(regs(0), regs(2)); !math.IsInf(got, 1) {
		t.Fatalf("x/0 must be +Inf, got %v", got)
	}
	if Euclidean(regs(0), regs(0)) != 0 {
		t.Fatal("0/0 must be 0")
	}
}

func TestEuclideanAccumulates(t *testing.T) {
	// The same per-component error over more components keeps Er constant
	// (both sums scale linearly) — but unlike Chebyshev, Er grows when a
	// single component's error grows quadratically.
	small := Euclidean(regs(10, 10), regs(9, 10))
	big := Euclidean(regs(10, 10), regs(8, 10))
	if !(big > 3.9*small && big < 4.1*small) {
		t.Fatalf("doubling one error must quadruple Er: %v vs %v", small, big)
	}
}

func TestCorrectnessClamps(t *testing.T) {
	if Correctness(0) != 100 {
		t.Fatal("Er=0 -> 100%")
	}
	if got := Correctness(0.05); math.Abs(got-95) > 1e-12 {
		t.Fatalf("Er=0.05 -> 95%%, got %v", got)
	}
	if Correctness(2) != 0 {
		t.Fatal("Er>1 clamps to 0%")
	}
	if Correctness(math.Inf(1)) != 0 || Correctness(math.NaN()) != 0 {
		t.Fatal("Inf/NaN clamp to 0%")
	}
}

func TestQuickMetricAxioms(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 {
			return true
		}
		a, b = a[:n], b[:n]
		for i := 0; i < n; i++ {
			if math.IsNaN(a[i]) || math.IsInf(a[i], 0) {
				a[i] = 1
			}
			if math.IsNaN(b[i]) || math.IsInf(b[i], 0) {
				b[i] = 2
			}
		}
		tau := Chebyshev(regs(a...), regs(b...))
		er := Euclidean(regs(a...), regs(b...))
		// Non-negativity, and zero exactly on equality.
		if tau < 0 || er < 0 {
			return false
		}
		equal := true
		for i := range a {
			if a[i] != b[i] {
				equal = false
			}
		}
		if equal && (tau != 0 || er != 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// denseLU computes an unpivoted LU of a copy of a, returning the combined
// factors, for residual testing.
func denseLUFactor(a []float64, n int) []float64 {
	lu := make([]float64, len(a))
	copy(lu, a)
	for k := 0; k < n; k++ {
		for i := k + 1; i < n; i++ {
			lu[i*n+k] /= lu[k*n+k]
			for j := k + 1; j < n; j++ {
				lu[i*n+j] -= lu[i*n+k] * lu[k*n+j]
			}
		}
	}
	return lu
}

func TestLUResidualIdentity(t *testing.T) {
	// A = I: LU = I, residual 0.
	n := 4
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		a[i*n+i] = 1
	}
	if got := LUResidual(a, a, n); got != 0 {
		t.Fatalf("identity residual=%v", got)
	}
}

func TestLUResidualExactFactorization(t *testing.T) {
	// A small diagonally dominant matrix factors exactly (up to float64
	// roundoff); the residual must be tiny.
	n := 6
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a[i*n+j] = 1 / float64(1+i+j)
		}
		a[i*n+i] += 4
	}
	lu := denseLUFactor(a, n)
	if got := LUResidual(a, lu, n); got > 1e-25 {
		t.Fatalf("exact factorization residual=%v", got)
	}
}

func TestLUResidualDetectsCorruption(t *testing.T) {
	n := 6
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a[i*n+j] = float64((i*j)%5) * 0.25
		}
		a[i*n+i] += 3
	}
	lu := denseLUFactor(a, n)
	lu[2*n+3] += 0.5 // corrupt U
	if got := LUResidual(a, lu, n); got < 1e-6 {
		t.Fatalf("corrupted factors must have a visible residual, got %v", got)
	}
}

func TestLUResidualZeroMatrix(t *testing.T) {
	n := 3
	z := make([]float64, n*n)
	if got := LUResidual(z, z, n); got != 0 {
		t.Fatalf("0/0 must be 0, got %v", got)
	}
}

// opaque hides a region's concrete type, so the metrics take their
// element-by-element Float64At loop: the reference the slice loops for
// float regions must match bit for bit.
type opaque struct{ region.Region }

func TestSliceLoopsMatchElementLoop(t *testing.T) {
	vals := func(n int, seed uint64, scale float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			seed = seed*6364136223846793005 + 1442695040888963407
			xs[i] = (float64(seed>>11)/(1<<53) - 0.5) * scale
		}
		return xs
	}
	// make builds a region of each kind from the same values.
	kinds := map[string]func(xs []float64) region.Region{
		"float64": func(xs []float64) region.Region { return region.WrapFloat64(xs) },
		"float32": func(xs []float64) region.Region {
			d := make([]float32, len(xs))
			for i, x := range xs {
				d[i] = float32(x)
			}
			return region.WrapFloat32(d)
		},
		"int32": func(xs []float64) region.Region {
			d := make([]int32, len(xs))
			for i, x := range xs {
				d[i] = int32(x)
			}
			return region.WrapInt32(d)
		},
		"bytes": func(xs []float64) region.Region {
			d := make([]byte, len(xs))
			for i, x := range xs {
				d[i] = byte(int(x))
			}
			return region.WrapBytes(d)
		},
	}
	check := func(name string, correct, atm []region.Region) {
		t.Helper()
		var oc, oa []region.Region
		for i := range correct {
			oc, oa = append(oc, opaque{correct[i]}), append(oa, opaque{atm[i]})
		}
		if got, want := Chebyshev(correct, atm), Chebyshev(oc, oa); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: Chebyshev = %v, element loop %v", name, got, want)
		}
		if got, want := Euclidean(correct, atm), Euclidean(oc, oa); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: Euclidean = %v, element loop %v", name, got, want)
		}
	}
	var mixedC, mixedA []region.Region
	for cn, mkC := range kinds {
		for an, mkA := range kinds {
			for _, n := range []int{0, 1, 7, 1000} {
				c, a := mkC(vals(n, 1, 200)), mkA(vals(n, 2, 200))
				check(cn+"/"+an, []region.Region{c}, []region.Region{a})
				check(cn+"/"+an+" equal", []region.Region{c}, []region.Region{mkA(vals(n, 1, 200))})
				if n == 7 {
					mixedC, mixedA = append(mixedC, c), append(mixedA, a)
				}
			}
			// 0/0 and x/0, and what a NaN or an infinity does to a maximum.
			check(cn+"/"+an+" 0/0", []region.Region{mkC([]float64{0, 0})}, []region.Region{mkA([]float64{0, 0})})
			check(cn+"/"+an+" x/0", []region.Region{mkC([]float64{0, 0})}, []region.Region{mkA([]float64{3, 0})})
		}
	}
	check("all kinds in one list", mixedC, mixedA)
	nan, inf := math.NaN(), math.Inf(1)
	for _, xs := range [][2][]float64{
		{{1, nan, 3}, {1, 2, 3}}, {{1, 2, 3}, {nan, 2, 3}}, {{inf, 2}, {1, 2}}, {{1, 2}, {-inf, 2}}, {{inf}, {inf}}, {{nan}, {nan}},
	} {
		check("non-finite", []region.Region{region.WrapFloat64(xs[0])}, []region.Region{region.WrapFloat64(xs[1])})
		check("non-finite", []region.Region{kinds["float32"](xs[0])}, []region.Region{kinds["float32"](xs[1])})
	}
	// The edge values themselves, through the slice loops.
	if got := Chebyshev(regs(0, 0), regs(0, 0)); got != 0 {
		t.Errorf("0/0 = %v", got)
	}
	if got := Euclidean([]region.Region{kinds["float32"]([]float64{0})}, []region.Region{kinds["float32"]([]float64{2})}); !math.IsInf(got, 1) {
		t.Errorf("x/0 = %v", got)
	}
}

func BenchmarkChebyshev(b *testing.B) {
	xs, ys := make([]float64, 16384), make([]float64, 16384)
	for i := range xs {
		xs[i], ys[i] = float64(i), float64(i)+0.5
	}
	correct, atm := regs(xs...), regs(ys...)
	b.Run("slices", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Chebyshev(correct, atm)
		}
	})
	b.Run("elements", func(b *testing.B) {
		oc, oa := []region.Region{opaque{correct[0]}}, []region.Region{opaque{atm[0]}}
		for i := 0; i < b.N; i++ {
			Chebyshev(oc, oa)
		}
	})
}
