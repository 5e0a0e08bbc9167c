// Package swaptions implements the Swaptions benchmark of Table I: the
// Intel RMS workload pricing a portfolio of swaptions under the
// Heath–Jarrow–Morton (HJM) framework with Monte-Carlo simulation. One
// task type (HJM_Swaption_Blocking) prices one swaption: tiny inputs (376
// bytes of parameters and forward-curve points) and heavy computation.
//
// ATM requires deterministic tasks (§III-E), so the Monte-Carlo generator
// is seeded from a hash of the task's declared inputs: equal parameter
// vectors always price to bit-equal results, which is exactly the property
// the original benchmark achieves with its per-swaption fixed seeds.
//
// Redundancy structure (§V-D): the program input carries redundancy —
// some swaptions are exact duplicates (static ATM's 7% reuse) and more
// are near-duplicates differing only in low mantissa bits of the forward
// curve, which only dynamic ATM can match (raising reuse to ~20%). The
// reuse is spread over the whole execution history.
package swaptions

import (
	"math"

	"atm/internal/apps"
	"atm/internal/hashx"
	"atm/internal/metrics"
	"atm/internal/region"
	"atm/internal/taskrt"
)

// curvePoints is the number of forward-curve tenors per swaption. With 7
// scalar terms this gives 47 float64s = 376 bytes, Table I's task input.
const curvePoints = 40

// paramLen is the number of float64 parameters per swaption.
const paramLen = 7 + curvePoints

// Params sizes a workload.
type Params struct {
	// NumSwaptions is the portfolio size (paper: 512, enlarged from the
	// native 128 so dynamic ATM has enough tasks to train).
	NumSwaptions int
	// Trials is the number of Monte-Carlo paths per swaption.
	Trials int
	// Steps is the number of time steps per path.
	Steps int
	// DupFraction is the fraction of exact duplicate swaptions.
	DupFraction float64
	// NearDupFraction is the fraction of near-duplicates: copies whose
	// forward curve is perturbed only in the low mantissa bits.
	NearDupFraction float64
	// Seed fixes the generated portfolio.
	Seed uint64
}

// ParamsFor returns parameters at a scale.
func ParamsFor(scale apps.Scale) Params {
	switch scale {
	case apps.ScalePaper:
		return Params{NumSwaptions: 512, Trials: 20000, Steps: 50, DupFraction: 0.07, NearDupFraction: 0.13, Seed: 23}
	case apps.ScaleBench:
		return Params{NumSwaptions: 512, Trials: 1500, Steps: 40, DupFraction: 0.07, NearDupFraction: 0.13, Seed: 23}
	default:
		return Params{NumSwaptions: 64, Trials: 200, Steps: 16, DupFraction: 0.1, NearDupFraction: 0.15, Seed: 23}
	}
}

// App is one Swaptions workload instance.
type App struct {
	p       Params
	inputs  []*region.Float64 // paramLen values per swaption
	results []*region.Float64 // price, stderr
}

// New builds a workload with explicit parameters.
func New(p Params) *App {
	if p.NumSwaptions < 1 {
		p.NumSwaptions = 1
	}
	a := &App{p: p}
	rng := apps.NewRNG(p.Seed)

	fresh := func() []float64 {
		v := make([]float64, paramLen)
		// Parameters span several float64 binades, as real portfolios
		// do. Two consequences match the paper: a falsely merged pair
		// of distinct swaptions produces a large Chebyshev τ (the
		// training phase can detect and reject too-small p values),
		// and most distinct swaptions already differ in exponent
		// bytes, so correctness only collapses at very small p
		// (Fig. 5: Swaptions degrades below p = 12.5%).
		v[0] = math.Exp(rng.Float64()*3) * 0.01     // strike: 0.01 .. 0.2
		v[1] = 1 + float64(rng.Intn(9))             // option maturity (years)
		v[2] = 1 + float64(rng.Intn(19))            // swap tenor (years)
		v[3] = 10 * math.Exp(rng.Float64()*4.6)     // notional: 10 .. 1000
		v[4] = 0.002 * math.Exp(rng.Float64()*3.2)  // volatility level
		v[5] = 0.05 * math.Exp(rng.Float64()*2.3)   // mean reversion
		v[6] = float64(1 + rng.Intn(4))             // payments per year
		base := 0.005 * math.Exp(rng.Float64()*3.4) // initial forward level
		for i := 0; i < curvePoints; i++ {
			v[7+i] = base * (1 + 0.01*float64(i) + 0.05*rng.Float64())
		}
		return v
	}
	perturb := func(src []float64) []float64 {
		v := make([]float64, paramLen)
		copy(v, src)
		for i := 7; i < paramLen; i++ {
			// Flip only the lowest mantissa bits: invisible to the
			// type-aware MSB sampling at moderate p, fatal to exact
			// (p = 100%) matching.
			bits := math.Float64bits(v[i])
			bits ^= rng.Uint64() & 0xff
			v[i] = math.Float64frombits(bits)
		}
		return v
	}

	// Duplicates and near-duplicates are interleaved through the whole
	// portfolio, like the repeated entries of the PARSEC native input:
	// Fig. 9 shows Swaptions' redundancy "spread during the whole
	// execution history".
	var pool [][]float64
	for i := 0; i < p.NumSwaptions; i++ {
		var v []float64
		r := rng.Float64()
		switch {
		case i > 0 && r < p.DupFraction:
			v = make([]float64, paramLen)
			copy(v, pool[rng.Intn(len(pool))]) // exact duplicate
		case i > 0 && r < p.DupFraction+p.NearDupFraction:
			v = perturb(pool[rng.Intn(len(pool))])
		default:
			v = fresh()
		}
		pool = append(pool, v)
		a.inputs = append(a.inputs, region.WrapFloat64(v))
		a.results = append(a.results, region.NewFloat64(2))
	}
	return a
}

// Factory builds an instance at the given scale.
func Factory(scale apps.Scale) apps.App { return New(ParamsFor(scale)) }

// Name implements apps.App.
func (a *App) Name() string { return "Swaptions" }

// price runs the HJM-style Monte-Carlo pricer for one swaption.
func price(in []float64, out []float64, trials, steps int) {
	strike, matur, tenor := in[0], in[1], in[2]
	notional, vol, kappa := in[3], in[4], in[5]
	payFreq := in[6]
	curve := in[7:]

	// Deterministic per-task seed: a pure function of the inputs, so
	// equal parameter vectors price to bit-equal results (§III-E). The
	// seed hashes only the upper four bytes of each parameter — the
	// common-random-numbers technique: swaptions with nearly identical
	// parameters are priced on the same noise realization, so their
	// price difference reflects the parameter difference rather than
	// independent Monte-Carlo sampling error. This hash is part of the
	// workload, not a task key: its seed (0x5ee0) is fixed, so the
	// workload's outputs do not depend on the engine's configuration.
	h := hashx.New(hashx.Lookup3, 0x5ee0)
	for _, v := range in {
		h.WriteUint32(uint32(math.Float64bits(v) >> 32))
	}
	rng := apps.NewRNG(h.Sum64())

	dt := matur / float64(steps)
	sqrtDt := math.Sqrt(dt)
	var sum, sumSq float64
	for tr := 0; tr < trials; tr++ {
		// Evolve the short rate along the forward curve with mean
		// reversion (a one-factor HJM discretization).
		r := curve[0]
		discount := 1.0
		for s := 0; s < steps; s++ {
			fwd := curve[(s*curvePoints)/steps]
			r += kappa*(fwd-r)*dt + vol*sqrtDt*rng.NormFloat64()
			discount *= math.Exp(-r * dt)
		}
		// Swap value at option expiry: level-weighted rate spread.
		nPay := int(tenor * payFreq)
		if nPay < 1 {
			nPay = 1
		}
		level := 0.0
		df, step := 1.0, math.Exp(-r/payFreq) // one period's discount
		for k := 1; k <= nPay; k++ {
			df *= step
			level += df / payFreq
		}
		payoff := notional * level * (r - strike)
		if payoff < 0 {
			payoff = 0
		}
		v := discount * payoff
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(trials)
	variance := sumSq/float64(trials) - mean*mean
	if variance < 0 {
		variance = 0
	}
	out[0] = mean
	out[1] = math.Sqrt(variance / float64(trials))
}

// Run implements apps.App.
func (a *App) Run(rt *taskrt.Runtime) {
	trials, steps := a.p.Trials, a.p.Steps
	hjm := rt.RegisterType(taskrt.TypeConfig{
		Name:      "HJM_Swaption_Blocking",
		Memoize:   true,
		TauMax:    0.20, // Table II: τmax = 20%
		LTraining: 15,   // Table II
		Run: func(t *taskrt.Task) {
			price(t.Float64s(0), t.Float64s(1), trials, steps)
		},
	})
	sb := rt.Batcher()
	for i := range a.inputs {
		sb.Add(hjm, taskrt.In(a.inputs[i]), taskrt.Out(a.results[i]))
	}
	sb.Flush()
	rt.Wait()
}

// Result implements apps.App: correctness is measured on the prices
// vector (Table I).
func (a *App) Result() []region.Region {
	out := make([]region.Region, len(a.results))
	for i, r := range a.results {
		out[i] = r
	}
	return out
}

// Correctness implements apps.App.
func (a *App) Correctness(ref apps.App) float64 {
	return metrics.Correctness(metrics.Euclidean(ref.Result(), a.Result()))
}

// MemoTaskInputBytes implements apps.App: 376 bytes, Table I's smallest.
func (a *App) MemoTaskInputBytes() int { return paramLen * 8 }

// FootprintBytes implements apps.App.
func (a *App) FootprintBytes() int {
	return len(a.inputs) * (paramLen + 2) * 8
}

// NumTasks returns the task count (Table I: 512).
func (a *App) NumTasks() int { return len(a.inputs) }

// Params returns the instance's parameters.
func (a *App) Params() Params { return a.p }
