package main

import (
	"context"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"atm/internal/apps"
	"atm/internal/harness"
	"atm/internal/region"
	"atm/internal/trace"
)

const (
	appSetupRepeats = 3
	// An (app, configuration) pair is repeated until it has used its
	// share of the run's seconds and has enough runs for a steady
	// median: the shorter a run, the more of them.
	appShareOfRun = 0.05
	appLongRun    = 500 * time.Millisecond
	appShortRun   = 100 * time.Millisecond
)

func minRuns(elapsed time.Duration) int {
	switch {
	case elapsed >= appLongRun:
		return 3
	case elapsed >= appShortRun:
		return 5
	}
	return 15
}

// appRuns is the measured runs of one app under one configuration.
// Only the last outcome is kept whole: an outcome holds the app's data.
type appRuns struct {
	elapsed         []time.Duration // sorted
	tasks, memoized int64           // ATM-visible, over all runs
	cpu             time.Duration   // process CPU over all runs, construction included
	last            harness.Outcome
}

func (a appRuns) median() time.Duration { return a.elapsed[len(a.elapsed)/2] }

// measureApp repeats one configuration for its time share.
func measureApp(ctx context.Context, f apps.Factory, scale apps.Scale, workers int, spec harness.ATMSpec, opt harness.RunOptions, share time.Duration) appRuns {
	var a appRuns
	var used time.Duration
	cpu0 := selfCPU()
	for ctx.Err() == nil {
		a.last = harness.RunOne(f, scale, workers, spec, opt)
		a.elapsed = append(a.elapsed, a.last.Elapsed)
		for _, ts := range a.last.Stats.Types {
			a.tasks += ts.Tasks
			a.memoized += ts.MemoizedTHT + ts.MemoizedIKT
		}
		used += a.last.Elapsed
		if used >= share && len(a.elapsed) >= minRuns(a.last.Elapsed) {
			break
		}
	}
	a.cpu = selfCPU() - cpu0
	slices.Sort(a.elapsed)
	return a
}

func sameResults(a, b []region.Region) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].EqualContents(b[i]) {
			return false
		}
	}
	return true
}

// runApps measures the paper's six applications under the baseline
// runtime and under Dynamic ATM. No HTTP, no child process: the task
// runtime, the hash and sampling layers and ATM's training controller
// carry the time here.
func runApps(ctx context.Context, scale apps.Scale, seed uint64, seconds float64, traced bool, res *result) error {
	workers := min(2, runtime.NumCPU())
	names := harness.Benchmarks()
	share := time.Duration(seconds * appShareOfRun * float64(time.Second))
	if traced {
		share /= 2
	}
	opt := harness.RunOptions{Seed: seed}

	var setup, atmTime float64
	var speedups, medians, rates, inTime, correct []float64
	var memoized, allTasks int64
	var cpu time.Duration
	var states [6]time.Duration
	cal := startCalibrator()
	for _, name := range names {
		f := harness.FactoryFor(name)
		var builds []float64
		for i := 0; i < appSetupRepeats; i++ {
			t0 := time.Now()
			_ = f(scale)
			builds = append(builds, time.Since(t0).Seconds())
		}
		setup += median(builds)

		base := measureApp(ctx, f, scale, workers, harness.Baseline(), opt, share)
		static := harness.RunOne(f, scale, workers, harness.Static(true), opt)
		atm := measureApp(ctx, f, scale, workers, harness.Dynamic(true), opt, share)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		b, a := base.median(), atm.median()
		res.attempted += int64(len(base.elapsed) + len(atm.elapsed) + 1)
		if !sameResults(static.App.Result(), base.last.App.Result()) {
			res.failed++
			res.violate("%s: Static ATM outputs differ from the baseline's", name)
		}

		// Every run of an app submits the same task graph.
		runs := int64(len(atm.elapsed))
		c := atm.last.App.Correctness(base.last.App)
		sp := b.Seconds() / a.Seconds()
		reuse := float64(atm.memoized) / float64(max(atm.tasks, 1))
		atmTime += a.Seconds()
		speedups = append(speedups, sp)
		medians = append(medians, ms(a))
		// The paper's promise is that ATM does not cost time: a run meets
		// its limit when it is no slower than the baseline's median.
		inTime = append(inTime, float64(sort.Search(len(atm.elapsed), func(i int) bool { return atm.elapsed[i] > b }))/float64(runs))
		correct = append(correct, c)
		rates = append(rates, float64(atm.tasks/runs)/a.Seconds())
		allTasks += atm.tasks
		memoized += atm.memoized
		cpu += atm.cpu
		res.set("apps."+name+".baseline_ms", ms(b))
		res.set("apps."+name+".atm_ms", ms(a))
		res.set("apps."+name+".speedup", sp)
		res.set("apps."+name+".correctness_pct", c)
		res.set("apps."+name+".reuse_pct", 100*reuse)
		res.note("%-12s baseline %8.2f ms (%d runs)  atm %8.2f ms (%d runs, %.2f–%.2f)  speedup %.2fx  correctness %.2f%%  reuse %.1f%%",
			name, ms(b), len(base.elapsed), ms(a), runs, ms(atm.elapsed[0]), ms(atm.elapsed[runs-1]), sp, c, 100*reuse)

		if traced {
			topt := opt
			topt.Trace = true
			o := harness.RunOne(f, scale, workers, harness.Dynamic(true), topt)
			for _, lane := range o.Tracer.Durations() {
				for s, d := range lane {
					states[s] += d
				}
			}
		}
	}

	// One slowness factor for the whole run: every timing here is the
	// run time of a CPU-bound program.
	slow, unit := cal.finish()
	res.note("machine slowness %.3f over the run", slow)
	res.set("loadgen.calib_unit_us", us(unit))
	res.set("setup_s", setup/slow)
	// Geometric means weigh the six apps equally, as the paper's speedup
	// does. A sum would be Swaptions alone (0.9 s of 1.0 s), whose run time
	// on two saturated cores moves ±15 % between processes on this box.
	res.set("tasks_per_s", slow*geomean(rates))
	res.set("lat_p50_ms", geomean(medians)/slow)
	res.set("slo_ok_ratio", mean(inTime))
	res.set("hit_ratio", float64(memoized)/float64(max(allTasks, 1)))
	res.set("cpu_us_per_task", us(cpu)/float64(max(allTasks, 1))/slow)
	rss, err := procPeakRSS(os.Getpid())
	if err != nil {
		return err
	}
	res.set("rss_mb", float64(rss)/(1<<20))
	res.set("correctness_pct", mean(correct))
	res.set("apps.time_s", atmTime)
	res.set("apps.speedup_geomean", geomean(speedups))
	if traced {
		var total time.Duration
		for _, d := range states {
			total += d
		}
		for s, key := range map[trace.State]string{
			trace.StateExec: "trace.exec_share", trace.StateHash: "trace.hash_share", trace.StateMemo: "trace.memo_share",
			trace.StateCreate: "trace.create_share", trace.StateIdle: "trace.idle_share",
		} {
			res.set(key, float64(states[s])/float64(max(total, 1)))
		}
	}
	return nil
}

func geomean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
