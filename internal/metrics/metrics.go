// Package metrics implements the error and correctness measures of the
// paper's evaluation (§III-D and §IV-C).
//
// Per-task approximation error uses the Chebyshev relative error τ
// (equation 1): the maximum absolute component difference divided by the
// maximum absolute component of the correct output. The paper selects it
// over the Euclidean relative error Er (equation 3) because τ's reduction
// is a max, not a floating-point accumulation, so it stays precise in high
// output dimensionalities and correlates with whole-program correctness.
//
// Whole-program correctness is reported as (1 - Er) * 100%, with the
// LU-specific residual |A - L*U|² / |A|² (equation 4) for SparseLU.
//
// Beyond the paper's measures, the package carries the operational
// metrics substrate of the service layer (docs/service.md): a
// fixed-ladder latency Histogram (hist.go) on the atmd request path,
// and a dependency-free Prometheus text-format writer (prom.go) behind
// atmd's GET /metrics.
package metrics

import (
	"math"

	"atm/internal/region"
)

// Chebyshev returns τ = max_i |correct_i - atm_i| / max_i |correct_i|
// over the concatenation of the paired regions (equation 1).
//
// Edge cases: if the denominator is zero, τ is 0 when the numerator is
// also zero (both outputs are identically zero) and +Inf otherwise.
func Chebyshev(correct, atm []region.Region) float64 {
	var num, den float64
	for k, c := range correct {
		// Dynamic ATM grades every training-phase task through here, over
		// blocks of thousands of floats: two regions of one float type are
		// compared as slices, not through two interface calls per element.
		switch c := c.(type) {
		case *region.Float64:
			if a, ok := atm[k].(*region.Float64); ok {
				num, den = chebyshevFloats(c.Data, a.Data, num, den)
				continue
			}
		case *region.Float32:
			if a, ok := atm[k].(*region.Float32); ok {
				num, den = chebyshevFloats(c.Data, a.Data, num, den)
				continue
			}
		}
		a := atm[k]
		n := c.NumElems()
		for i := 0; i < n; i++ {
			cv := c.Float64At(i)
			av := a.Float64At(i)
			if d := math.Abs(cv - av); d > num {
				num = d
			}
			if m := math.Abs(cv); m > den {
				den = m
			}
		}
	}
	return ratio(num, den)
}

// chebyshevFloats folds one pair of equally typed vectors into
// Chebyshev's two maxima, element for element what the Float64At loop
// computes.
func chebyshevFloats[T float32 | float64](correct, atm []T, num, den float64) (float64, float64) {
	atm = atm[:len(correct)]
	for i, c := range correct {
		cv, av := float64(c), float64(atm[i])
		if d := math.Abs(cv - av); d > num {
			num = d
		}
		if m := math.Abs(cv); m > den {
			den = m
		}
	}
	return num, den
}

// Euclidean returns Er = Σ(correct_i - atm_i)² / Σ(correct_i)²
// (equation 3).
//
// Edge cases mirror Chebyshev: 0/0 is 0, x/0 with x > 0 is +Inf.
func Euclidean(correct, atm []region.Region) float64 {
	var num, den float64
	for k, c := range correct {
		switch c := c.(type) {
		case *region.Float64:
			if a, ok := atm[k].(*region.Float64); ok {
				num, den = euclideanFloats(c.Data, a.Data, num, den)
				continue
			}
		case *region.Float32:
			if a, ok := atm[k].(*region.Float32); ok {
				num, den = euclideanFloats(c.Data, a.Data, num, den)
				continue
			}
		}
		a := atm[k]
		n := c.NumElems()
		for i := 0; i < n; i++ {
			cv := c.Float64At(i)
			av := a.Float64At(i)
			d := cv - av
			num += d * d
			den += cv * cv
		}
	}
	return ratio(num, den)
}

// euclideanFloats adds one pair of equally typed vectors to Euclidean's
// two sums, in the order the Float64At loop adds them.
func euclideanFloats[T float32 | float64](correct, atm []T, num, den float64) (float64, float64) {
	atm = atm[:len(correct)]
	for i, c := range correct {
		cv, av := float64(c), float64(atm[i])
		d := cv - av
		num += d * d
		den += cv * cv
	}
	return num, den
}

// ratio is num/den with the relative errors' edge cases: 0/0 is 0 and
// x/0 is +Inf.
func ratio(num, den float64) float64 {
	if den == 0 {
		if num == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return num / den
}

// Correctness converts a relative error Er into the paper's correctness
// percentage: (1 - Er) * 100, clamped to [0, 100].
func Correctness(er float64) float64 {
	c := (1 - er) * 100
	if math.IsNaN(c) || c < 0 {
		return 0
	}
	if c > 100 {
		return 100
	}
	return c
}

// LUResidual returns |A - L*U|² / |A|² (equation 4) for a dense row-major
// n×n matrix A and the combined LU factors (unit lower triangle L below
// the diagonal, U on and above it), both length n*n.
func LUResidual(a, lu []float64, n int) float64 {
	var num, den float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			// (L*U)[i][j] = Σ_k L[i][k] * U[k][j], k ≤ min(i, j),
			// with L[i][i] = 1.
			kmax := i
			if j < kmax {
				kmax = j
			}
			var s float64
			for k := 0; k < kmax; k++ {
				s += lu[i*n+k] * lu[k*n+j]
			}
			// k = kmax term: if kmax == i, L[i][i] = 1 → + U[i][j];
			// else L[i][kmax]*U[kmax][j] with kmax == j.
			if kmax == i {
				s += lu[i*n+j]
			} else {
				s += lu[i*n+kmax] * lu[kmax*n+j]
			}
			d := a[i*n+j] - s
			num += d * d
			den += a[i*n+j] * a[i*n+j]
		}
	}
	return ratio(num, den)
}
