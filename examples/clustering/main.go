// Clustering: the paper's Kmeans scenario (§IV-A, §V-D). The centers move
// every iteration, so exact memoization finds nothing — but once clusters
// start converging their most significant bytes freeze, and dynamic ATM's
// approximate matching turns the assignment tasks into table lookups.
//
//	go run ./examples/clustering
package main

import (
	"fmt"
	"time"

	"atm/internal/apps"
	"atm/internal/apps/kmeans"
	"atm/internal/core"
	"atm/internal/taskrt"
)

func run(label string, mode core.Mode, enabled bool) (time.Duration, apps.App, *core.ATM) {
	app := kmeans.New(kmeans.ParamsFor(apps.ScaleBench))
	var memo *core.ATM
	var m taskrt.Memoizer
	if enabled {
		memo = core.New(core.Config{Mode: mode})
		m = memo
	}
	// kmeans submits through a Batcher: its assignment tasks are batched
	// together with the fan-in update task, so the update's wide
	// dependence set is wired without atomics.
	rt := taskrt.New(taskrt.Config{Workers: 8, Memoizer: m})
	start := time.Now()
	app.Run(rt)
	elapsed := time.Since(start)
	rt.Close()
	fmt.Printf("%-14s %v\n", label, elapsed.Round(time.Millisecond))
	return elapsed, app, memo
}

func main() {
	base, ref, _ := run("baseline", 0, false)
	st, stApp, _ := run("static ATM", core.ModeStatic, true)
	dy, dyApp, memo := run("dynamic ATM", core.ModeDynamic, true)

	fmt.Printf("\nstatic  ATM: %.2fx speedup, %.3f%% correct (exact matching finds little: centers move every iteration)\n",
		float64(base)/float64(st), stApp.Correctness(ref))
	fmt.Printf("dynamic ATM: %.2fx speedup, %.3f%% correct\n",
		float64(base)/float64(dy), dyApp.Correctness(ref))
	for _, ts := range memo.Stats().Types {
		fmt.Printf("type %q: reuse %.1f%% at p=%.4g%% (τmax=20%%)\n",
			ts.Name, 100*ts.Reuse(), 100*ts.P)
	}
}
