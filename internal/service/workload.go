// Package service turns the ATM engine into a network-facing
// memoization service: a catalog of task kinds clients can submit
// (workload.go), an engine that serves each request on its caller's
// goroutine — steady memoizable tasks through core.Serve, the rest as
// one SubmitBatch under the task runtime's lock — and sheds load past
// the adaptive throttle watermark (engine.go), and the HTTP front-end
// behind cmd/atmd (http.go) with its wire codec (codec.go). The load
// that drives it comes from the repository benchmark (benchmark/). See
// docs/service.md for the wire API, the backpressure semantics and the
// metrics catalog.
package service

import (
	"math"
	"sort"
)

// Kind is one service task kind: a pure float64-vector kernel with
// fixed input and output arity. The kernels are scaled-down versions of
// the paper's five evaluated applications (Table I) — the same
// compute shapes the harness benchmarks, repackaged as per-request
// units a network client can submit — plus a deliberately expensive
// `spin` kind for overload testing.
//
// Every kernel is a total, deterministic function of its input vector
// (finite inputs produce finite outputs, no global state), which is
// exactly the §III-E purity contract ATM's memoization requires.
type Kind struct {
	// Name is the wire name clients use ("blackscholes", "lu", ...).
	Name string
	// In and Out are the input/output vector lengths in float64s.
	In, Out int
	// Memoize marks the kind as ATM-eligible (the §III-E programmer
	// guidance). Non-memoizable kinds always execute.
	Memoize bool
	// Fn computes out from in. len(in) == In, len(out) == Out.
	Fn func(in, out []float64)
}

// TypeName returns the task-type name the engine registers for the
// kind. The svc/ prefix keeps service types distinct from the paper
// benchmarks' type names inside shared snapshot files.
func (k Kind) TypeName() string { return "svc/" + k.Name }

// Kernel sizing: small enough that one task is a sub-millisecond unit
// of work, large enough that the kernels dominate request framing.
const (
	bsOptions   = 16      // blackscholes: options per task
	swapCurve   = 32      // swaptions: forward-curve points per task
	stencilDim  = 16      // stencil: grid side
	stencilIter = 8       // stencil: jacobi sweeps per task
	kmClusters  = 8       // kmeans: centroids
	kmPoints    = 48      // kmeans: points per task
	kmDims      = 4       // kmeans: dimensions
	luDim       = 8       // lu: matrix side
	spinIters   = 1 << 21 // spin: fma iterations (~1-2ms)
)

// Kinds returns the catalog in stable (alphabetical) order.
func Kinds() []Kind {
	ks := []Kind{
		{Name: "blackscholes", In: bsOptions * 5, Out: bsOptions, Memoize: true, Fn: bsKernel},
		{Name: "kmeans", In: kmClusters*kmDims + kmPoints*kmDims, Out: kmClusters * kmDims, Memoize: true, Fn: kmeansKernel},
		{Name: "lu", In: luDim * luDim, Out: luDim * luDim, Memoize: true, Fn: luKernel},
		{Name: "spin", In: 8, Out: 1, Memoize: false, Fn: spinKernel},
		{Name: "stencil", In: stencilDim * stencilDim, Out: stencilDim * stencilDim, Memoize: true, Fn: stencilKernel},
		{Name: "swaptions", In: swapCurve, Out: 2, Memoize: true, Fn: swaptionsKernel},
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].Name < ks[j].Name })
	return ks
}

// KindByName resolves a wire name against the catalog.
func KindByName(name string) (Kind, bool) {
	for _, k := range Kinds() {
		if k.Name == name {
			return k, true
		}
	}
	return Kind{}, false
}

// splitmix64 is the input generator's PRNG step (same generator the
// deterministic scheduler uses): one 64-bit state in, one output out.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fnv64 hashes a kind name into the generator stream.
func fnv64(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Input builds the deterministic input vector for (kind, key, seed):
// the same triple always yields the same bytes, so a client re-sending
// a key re-hits the memoized entry, and the key-space cardinality of a
// workload directly controls its warm-hit ratio. Values are uniform in
// [0, 1); the kernels scale them into their own domains.
func Input(k Kind, key, seed uint64) []float64 {
	in := make([]float64, k.In)
	fillInput(in, k, key, seed)
	return in
}

// fillInput writes Input(k, key, seed) into in[:k.In].
func fillInput(in []float64, k Kind, key, seed uint64) {
	s := splitmix64(seed^fnv64(k.Name)) + key
	for i := range in[:k.In] {
		s = splitmix64(s)
		in[i] = float64(s>>11) / (1 << 53)
	}
}

// DefaultMix is the benchmark's workload mix over the memoizable
// kinds, by wire name, weighted toward the cheap kernels like real
// lookup-heavy traffic.
func DefaultMix() map[string]float64 {
	return map[string]float64{
		"blackscholes": 0.30,
		"stencil":      0.20,
		"kmeans":       0.20,
		"swaptions":    0.15,
		"lu":           0.15,
	}
}

// clamp01 maps any finite float into [0, 1] (NaN to 0), keeping the
// kernels total on arbitrary client inputs.
func clamp01(v float64) float64 {
	if !(v > 0) { // catches NaN too
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// normCDF is the standard normal CDF via math.Erf.
func normCDF(x float64) float64 { return 0.5 * (1 + math.Erf(x/math.Sqrt2)) }

// bsKernel prices bsOptions European calls: in holds (S, K, r, v, T)
// per option scaled from [0,1), out the Black-Scholes prices.
func bsKernel(in, out []float64) {
	for i := 0; i < bsOptions; i++ {
		p := in[i*5 : i*5+5]
		s := 10 + 90*clamp01(p[0])     // spot 10..100
		k := 10 + 90*clamp01(p[1])     // strike 10..100
		r := 0.01 + 0.09*clamp01(p[2]) // rate 1..10%
		v := 0.05 + 0.45*clamp01(p[3]) // vol 5..50%
		t := 0.1 + 1.9*clamp01(p[4])   // expiry 0.1..2y
		srt := v * math.Sqrt(t)
		d1 := (math.Log(s/k) + (r+v*v/2)*t) / srt
		d2 := d1 - srt
		out[i] = s*normCDF(d1) - k*math.Exp(-r*t)*normCDF(d2)
	}
}

// swaptionsKernel runs a deterministic pseudo-Monte-Carlo swaption
// valuation over a 32-point forward curve: the path noise is drawn from
// a splitmix stream seeded by the input bits themselves, so the result
// stays a pure function of the inputs. out is (price, spread).
func swaptionsKernel(in, out []float64) {
	var seed uint64
	var mean float64
	for i, v := range in {
		c := clamp01(v)
		mean += c
		seed = splitmix64(seed ^ math.Float64bits(c) ^ uint64(i))
	}
	mean /= float64(len(in))
	const paths = 64
	var sum, sumSq float64
	for p := 0; p < paths; p++ {
		rate := 0.01 + 0.05*mean
		var payoff float64
		for step := 0; step < 16; step++ {
			seed = splitmix64(seed)
			z := float64(seed>>11)/(1<<53) - 0.5 // uniform noise in [-0.5, 0.5)
			rate += 0.002 * z
			if rate < 0.0001 {
				rate = 0.0001
			}
			payoff += math.Max(rate-0.03, 0) / math.Pow(1+rate, float64(step+1))
		}
		sum += payoff
		sumSq += payoff * payoff
	}
	price := sum / paths
	out[0] = price
	out[1] = math.Sqrt(math.Abs(sumSq/paths - price*price))
}

// stencilKernel runs stencilIter Jacobi sweeps over a stencilDim² grid
// with fixed boundary values (the heat-diffusion shape of the paper's
// Jacobi benchmark).
func stencilKernel(in, out []float64) {
	n := stencilDim
	cur := make([]float64, len(in))
	for i, v := range in {
		cur[i] = clamp01(v)
	}
	next := make([]float64, len(in))
	for it := 0; it < stencilIter; it++ {
		copy(next, cur) // boundary rows/cols carry through
		for r := 1; r < n-1; r++ {
			for c := 1; c < n-1; c++ {
				next[r*n+c] = 0.25 * (cur[(r-1)*n+c] + cur[(r+1)*n+c] + cur[r*n+c-1] + cur[r*n+c+1])
			}
		}
		cur, next = next, cur
	}
	copy(out, cur)
}

// kmeansKernel performs one Lloyd iteration: in holds kmClusters
// centroids then kmPoints points (kmDims each); out the updated
// centroids. Empty clusters keep their previous centroid.
func kmeansKernel(in, out []float64) {
	clamped := make([]float64, len(in))
	for i, v := range in {
		clamped[i] = clamp01(v)
	}
	cents := clamped[:kmClusters*kmDims]
	points := clamped[kmClusters*kmDims:]
	var sums [kmClusters * kmDims]float64
	var counts [kmClusters]int
	for p := 0; p < kmPoints; p++ {
		pt := points[p*kmDims : (p+1)*kmDims]
		best, bestD := 0, math.Inf(1)
		for c := 0; c < kmClusters; c++ {
			var d float64
			for j := 0; j < kmDims; j++ {
				diff := pt[j] - cents[c*kmDims+j]
				d += diff * diff
			}
			if d < bestD {
				best, bestD = c, d
			}
		}
		for j := 0; j < kmDims; j++ {
			sums[best*kmDims+j] += pt[j]
		}
		counts[best]++
	}
	for c := 0; c < kmClusters; c++ {
		for j := 0; j < kmDims; j++ {
			if counts[c] > 0 {
				out[c*kmDims+j] = sums[c*kmDims+j] / float64(counts[c])
			} else {
				out[c*kmDims+j] = cents[c*kmDims+j]
			}
		}
	}
}

// luKernel factorizes a luDim² matrix in place (combined unit-lower L
// and U, the paper's SparseLU block shape). The input is made strictly
// diagonally dominant first so the pivotless factorization is total.
func luKernel(in, out []float64) {
	n := luDim
	for i, v := range in {
		out[i] = clamp01(v)
	}
	for i := 0; i < n; i++ {
		out[i*n+i] += float64(n) // diagonal dominance: no zero pivots
	}
	for k := 0; k < n; k++ {
		piv := out[k*n+k]
		for i := k + 1; i < n; i++ {
			out[i*n+k] /= piv
			f := out[i*n+k]
			for j := k + 1; j < n; j++ {
				out[i*n+j] -= f * out[k*n+j]
			}
		}
	}
}

// spinKernel burns a fixed ~1-2ms of floating-point work regardless of
// input: the overload kind, used to drive the server past its
// admission watermark in backpressure tests. Not memoizable, so every
// submission pays the full cost.
func spinKernel(in, out []float64) {
	x := clamp01(in[0]) + 1.1
	acc := 0.0
	for i := 0; i < spinIters; i++ {
		acc = acc*0.999999 + x
	}
	out[0] = acc
}
