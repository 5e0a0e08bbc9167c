// Heat diffusion: the paper's Gauss-Seidel stencil scenario (§IV-A). A
// room's walls emit heat at a fixed temperature; the interior converges
// slowly, so blocks far from the walls perform redundant work that
// dynamic ATM eliminates with bounded accuracy loss.
//
//	go run ./examples/heatdiffusion
package main

import (
	"fmt"
	"time"

	"atm/internal/apps"
	"atm/internal/apps/stencil"
	"atm/internal/core"
	"atm/internal/taskrt"
)

func run(spec string, memo *core.ATM) (time.Duration, apps.App) {
	app := stencil.New(stencil.ParamsFor(stencil.GaussSeidel, apps.ScaleBench))
	var m taskrt.Memoizer
	if memo != nil {
		m = memo
	}
	// The stencil submits its block sweep through the batched pipeline
	// (taskrt.DefaultBatch tasks per batch).
	rt := taskrt.New(taskrt.Config{Workers: 8, Memoizer: m})
	start := time.Now()
	app.Run(rt)
	elapsed := time.Since(start)
	rt.Close()
	fmt.Printf("%-22s %v\n", spec, elapsed.Round(time.Millisecond))
	return elapsed, app
}

func main() {
	base, ref := run("baseline", nil)

	memo := core.New(core.Config{Mode: core.ModeDynamic})
	dyn, app := run("dynamic ATM", memo)

	fmt.Printf("\nspeedup: %.2fx, correctness: %.3f%%\n",
		float64(base)/float64(dyn), app.Correctness(ref))
	for _, ts := range memo.Stats().Types {
		fmt.Printf("type %q: reuse %.1f%%, trained to p=%.4g%% (steady=%v), %d outputs excluded as unstable\n",
			ts.Name, 100*ts.Reuse(), 100*ts.P, ts.Steady, ts.ExcludedRegions)
	}
}
