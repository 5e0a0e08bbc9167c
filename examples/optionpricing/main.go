// Option pricing: the paper's Blackscholes scenario (§IV-A, §V-D). The
// portfolio tiles a pool of distinct options — the redundancy lives in
// the program's inputs, and most of it is generated early in the
// execution. Static ATM already wins; dynamic ATM also shrinks the
// hash-key computation to a sampled fraction of the 384 KiB task inputs.
//
//	go run ./examples/optionpricing
package main

import (
	"fmt"
	"time"

	"atm/internal/apps"
	"atm/internal/apps/blackscholes"
	"atm/internal/core"
	"atm/internal/taskrt"
	"atm/internal/trace"
)

func run(label string, memo *core.ATM) (time.Duration, apps.App, *trace.Tracer) {
	app := blackscholes.New(blackscholes.ParamsFor(apps.ScaleBench))
	tr := trace.New(8, false)
	var m taskrt.Memoizer
	if memo != nil {
		m = memo
	}
	// Blackscholes' flat independent block loop is the ideal SubmitBatch
	// shape: each batch publishes as one block push + one wake.
	rt := taskrt.New(taskrt.Config{Workers: 8, Memoizer: m, Tracer: tr})
	start := time.Now()
	app.Run(rt)
	elapsed := time.Since(start)
	rt.Close()
	fmt.Printf("%-14s %v\n", label, elapsed.Round(time.Millisecond))
	return elapsed, app, tr
}

func main() {
	base, ref, _ := run("baseline", nil)
	memo := core.New(core.Config{Mode: core.ModeDynamic})
	dyn, app, tr := run("dynamic ATM", memo)

	fmt.Printf("\nspeedup %.2fx, correctness %.3f%%\n",
		float64(base)/float64(dyn), app.Correctness(ref))
	for _, ts := range memo.Stats().Types {
		fmt.Printf("type %q: %d/%d tasks memoized at p=%.4g%%\n",
			ts.Name, ts.MemoizedTHT+ts.MemoizedIKT, ts.Tasks, 100*ts.P)
	}

	// Fig. 9's observation: redundancy is generated early.
	xs, ys := tr.CumulativeReuse()
	if len(xs) > 0 {
		fmt.Printf("first reuse-generating task at normalized id %.3f; half the reuse generated by id %.3f\n",
			xs[0], medianX(xs, ys))
	}
}

func medianX(xs, ys []float64) float64 {
	for i, y := range ys {
		if y >= 0.5 {
			return xs[i]
		}
	}
	return 1
}
