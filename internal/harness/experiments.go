package harness

import (
	"fmt"
	"io"
	"time"

	"atm/internal/apps"
	"atm/internal/trace"
)

// Options configure an experiment reproduction.
type Options struct {
	// Scale selects workload sizes (test/bench/paper).
	Scale apps.Scale
	// Workers is the core count (the paper's machine has 8).
	Workers int
	// Repeats is the number of timing repetitions (median reported).
	Repeats int
	// Benchmarks filters the evaluated applications (nil = all six).
	Benchmarks []string
	// Run holds the knobs every run of the experiment shares: seed,
	// scheduling, recovery and durability policies, THT budget. The
	// experiment owns the tracing and chain fields (Detail, Trace,
	// SnapshotChain, SnapshotDeltaEvery); runOpt clears them, so setting
	// them here has no effect.
	Run RunOptions
	// Out receives the report.
	Out io.Writer
}

func (o *Options) names() []string {
	if len(o.Benchmarks) == 0 {
		return Benchmarks()
	}
	return o.Benchmarks
}

// runOpt is the RunOptions every run of an experiment starts from: Run
// with the experiment-owned tracing and chain fields cleared.
func (o *Options) runOpt() RunOptions {
	ro := o.Run
	ro.Detail, ro.Trace = false, false
	ro.SnapshotChain, ro.SnapshotDeltaEvery = "", 0
	return ro
}

// Table1 reproduces Table I: benchmark descriptions with measured task
// counts and input sizes.
func Table1(opt Options) {
	fmt.Fprintf(opt.Out, "Table I: benchmark description (scale=%s)\n", opt.Scale)
	t := newTable(opt.Out)
	t.row("Benchmark", "TaskInputBytes", "InputKinds", "MemoizedTaskType", "MemoTasks", "AllTasks", "CorrectnessOn")
	for _, name := range opt.names() {
		f := FactoryFor(name)
		ro := opt.runOpt()
		ro.Trace = true
		o := RunOne(f, opt.Scale, opt.Workers, Dynamic(true), ro)
		var memoName string
		var memoTasks int64
		for _, ts := range o.Stats.Types {
			memoName = ts.Name
			memoTasks += ts.Tasks
		}
		t.row(name,
			fmt.Sprint(o.App.MemoTaskInputBytes()),
			inputKinds(name),
			memoName,
			fmt.Sprint(memoTasks),
			fmt.Sprint(o.Tracer.Created()),
			correctnessTarget(name))
	}
	t.flush()
}

func inputKinds(name string) string {
	switch name {
	case "Kmeans":
		return "float,int"
	case "Swaptions":
		return "double"
	default:
		return "float"
	}
}

func correctnessTarget(name string) string {
	switch name {
	case "Blackscholes", "Swaptions":
		return "Prices Vector"
	case "GS", "Jacobi":
		return "Stencil Matrix"
	case "Kmeans":
		return "Centers Vector"
	case "LU":
		return "L*U-A"
	default:
		return "-"
	}
}

// Table2 reproduces Table II: the dynamic-ATM parameters each benchmark
// declares in its task annotations.
func Table2(opt Options) {
	fmt.Fprintln(opt.Out, "Table II: dynamic ATM parameters")
	t := newTable(opt.Out)
	t.row("Benchmark", "Ltraining", "TauMax")
	params := map[string][2]string{
		"Blackscholes": {"15", "1%"},
		"GS":           {"100", "1%"},
		"Jacobi":       {"150", "1%"},
		"Kmeans":       {"15", "20%"},
		"LU":           {"30", "1%"},
		"Swaptions":    {"15", "20%"},
	}
	for _, name := range opt.names() {
		p := params[name]
		t.row(name, p[0], p[1])
	}
	t.flush()
}

// Table3 reproduces Table III: ATM memory overhead relative to the
// application footprint, measured after a dynamic-ATM run.
func Table3(opt Options) {
	fmt.Fprintf(opt.Out, "Table III: ATM memory overhead (scale=%s, N=8, M=128)\n", opt.Scale)
	t := newTable(opt.Out)
	t.row("Benchmark", "ATMBytes", "AppBytes", "Overhead")
	var ratios []float64
	for _, name := range opt.names() {
		o := RunOne(FactoryFor(name), opt.Scale, opt.Workers, Dynamic(true), opt.runOpt())
		ratio := 100 * float64(o.ATMMemory) / float64(o.App.FootprintBytes())
		ratios = append(ratios, ratio)
		t.row(name, fbytes(o.ATMMemory), fbytes(int64(o.App.FootprintBytes())), fpct(ratio))
	}
	t.flush()
	mean := 0.0
	for _, r := range ratios {
		mean += r
	}
	if len(ratios) > 0 {
		mean /= float64(len(ratios))
	}
	fmt.Fprintf(opt.Out, "average overhead: %s (paper: 9.4%%)\n", fpct(mean))
}

// matrixRow is the full Fig. 3 / Fig. 4 measurement for one benchmark.
type matrixRow struct {
	name                          string
	baseline                      Outcome
	staticTHT, dynTHT             Outcome
	staticIKT, dynIKT             Outcome
	oracle100, oracle95           OracleResult
	corrStatic, corrDyn, corrOr95 float64
	spStaticTHT, spDynTHT         float64
	spStaticIKT, spDynIKT         float64
	spOr100, spOr95               float64
}

// evalMatrix measures one benchmark under every Fig. 3 configuration.
func evalMatrix(name string, opt Options) matrixRow {
	f := FactoryFor(name)
	r := matrixRow{name: name}
	ro := opt.runOpt()
	r.baseline = RunMedian(f, opt.Scale, opt.Workers, Baseline(), ro, opt.Repeats)
	r.staticTHT = RunMedian(f, opt.Scale, opt.Workers, Static(false), ro, opt.Repeats)
	r.dynTHT = RunMedian(f, opt.Scale, opt.Workers, Dynamic(false), ro, opt.Repeats)
	r.staticIKT = RunMedian(f, opt.Scale, opt.Workers, Static(true), ro, opt.Repeats)
	r.dynIKT = RunMedian(f, opt.Scale, opt.Workers, Dynamic(true), ro, opt.Repeats)
	r.oracle100 = Oracle(f, opt.Scale, opt.Workers, r.baseline, 99.99, true, ro, opt.Repeats)
	r.oracle95 = Oracle(f, opt.Scale, opt.Workers, r.baseline, 95, true, ro, opt.Repeats)

	r.spStaticTHT = Speedup(r.baseline, r.staticTHT)
	r.spDynTHT = Speedup(r.baseline, r.dynTHT)
	r.spStaticIKT = Speedup(r.baseline, r.staticIKT)
	r.spDynIKT = Speedup(r.baseline, r.dynIKT)
	if r.oracle100.Found {
		r.spOr100 = Speedup(r.baseline, r.oracle100.Outcome)
	}
	if r.oracle95.Found {
		r.spOr95 = Speedup(r.baseline, r.oracle95.Outcome)
		r.corrOr95 = r.oracle95.Correctness
	}
	r.corrStatic = r.staticIKT.App.Correctness(r.baseline.App)
	r.corrDyn = r.dynIKT.App.Correctness(r.baseline.App)
	return r
}

// Fig3 reproduces Fig. 3 (speedups of static/dynamic ATM with THT and
// THT+IKT plus the two oracles) and, from the same runs, Fig. 4
// (correctness of static ATM, dynamic ATM and Oracle(95%)).
func Fig3(opt Options) {
	fmt.Fprintf(opt.Out, "Fig. 3: speedup over no-ATM baseline (scale=%s, workers=%d)\n", opt.Scale, opt.Workers)
	t := newTable(opt.Out)
	t.row("Benchmark", "Static(THT)", "Dynamic(THT)", "Static(THT+IKT)", "Dynamic(THT+IKT)", "Oracle(100%)", "Oracle(95%)")
	var sStatic, sDyn, sStaticIKT, sDynIKT, sOr100, sOr95 []float64
	var rows []matrixRow
	for _, name := range opt.names() {
		r := evalMatrix(name, opt)
		rows = append(rows, r)
		t.row(r.name, fx(r.spStaticTHT), fx(r.spDynTHT), fx(r.spStaticIKT), fx(r.spDynIKT), fx(r.spOr100), fx(r.spOr95))
		sStatic = append(sStatic, r.spStaticTHT)
		sDyn = append(sDyn, r.spDynTHT)
		sStaticIKT = append(sStaticIKT, r.spStaticIKT)
		sDynIKT = append(sDynIKT, r.spDynIKT)
		sOr100 = append(sOr100, r.spOr100)
		sOr95 = append(sOr95, r.spOr95)
	}
	t.row("geomean", fx(geomean(sStatic)), fx(geomean(sDyn)), fx(geomean(sStaticIKT)),
		fx(geomean(sDynIKT)), fx(geomean(sOr100)), fx(geomean(sOr95)))
	t.flush()

	fmt.Fprintln(opt.Out, "\nFig. 4: correctness (%)")
	t2 := newTable(opt.Out)
	t2.row("Benchmark", "StaticATM", "DynamicATM", "Oracle(95%)")
	var cs, cd, co []float64
	for _, r := range rows {
		t2.row(r.name, fpct(r.corrStatic), fpct(r.corrDyn), fpct(r.corrOr95))
		cs = append(cs, r.corrStatic)
		cd = append(cd, r.corrDyn)
		co = append(co, r.corrOr95)
	}
	t2.row("geomean", fpct(geomean(cs)), fpct(geomean(cd)), fpct(geomean(co)))
	t2.flush()
	fmt.Fprintln(opt.Out, "paper: Static 1.4x geomean @100% correct; Dynamic 2.5x @99.3% avg")
}

// Fig5 reproduces Fig. 5: final correctness when running with a constant
// percentage p, for every p level, plus the configuration dynamic ATM
// chooses (the star markers).
func Fig5(opt Options) {
	fmt.Fprintf(opt.Out, "Fig. 5: correctness vs percentage of selected inputs (scale=%s)\n", opt.Scale)
	for _, name := range opt.names() {
		f := FactoryFor(name)
		ref := RunOne(f, opt.Scale, opt.Workers, Baseline(), opt.runOpt())
		fmt.Fprintf(opt.Out, "\n%s:\n", name)
		t := newTable(opt.Out)
		t.row("p", "correctness", "reuse")
		for level := 0; level <= 15; level++ {
			o := RunOne(f, opt.Scale, opt.Workers, Fixed(level, true), opt.runOpt())
			t.row(pLabel(level), fpct(o.App.Correctness(ref.App)), fpct(100*o.Reuse()))
		}
		dyn := RunOne(f, opt.Scale, opt.Workers, Dynamic(true), opt.runOpt())
		var chosen int
		for _, l := range dyn.ChosenLevels {
			chosen = l
		}
		t.row("dynamic*", fpct(dyn.App.Correctness(ref.App)), fpct(100*dyn.Reuse()))
		t.flush()
		fmt.Fprintf(opt.Out, "dynamic ATM chose p = %s\n", pLabel(chosen))
	}
}

// Fig6 reproduces Fig. 6: speedup of dynamic ATM and Oracle(95%) as the
// number of cores grows from 1 to opt.Workers. The oracle level is
// profiled once at the maximum core count, like the paper's offline
// profiling, and replayed at each core count.
func Fig6(opt Options) {
	fmt.Fprintf(opt.Out, "Fig. 6: scalability 1..%d cores (scale=%s)\n", opt.Workers, opt.Scale)
	ro := opt.runOpt()
	perCore := map[string][]float64{}
	perCoreOr := map[string][]float64{}
	for _, name := range opt.names() {
		f := FactoryFor(name)
		refTop := RunMedian(f, opt.Scale, opt.Workers, Baseline(), ro, opt.Repeats)
		or := Oracle(f, opt.Scale, opt.Workers, refTop, 95, true, ro, opt.Repeats)
		for cores := 1; cores <= opt.Workers; cores++ {
			base := RunMedian(f, opt.Scale, cores, Baseline(), ro, opt.Repeats)
			dyn := RunMedian(f, opt.Scale, cores, Dynamic(true), ro, opt.Repeats)
			perCore[name] = append(perCore[name], Speedup(base, dyn))
			if or.Found {
				fixed := RunMedian(f, opt.Scale, cores, Fixed(or.Level, true), ro, opt.Repeats)
				perCoreOr[name] = append(perCoreOr[name], Speedup(base, fixed))
			} else {
				perCoreOr[name] = append(perCoreOr[name], 0)
			}
		}
	}
	t := newTable(opt.Out)
	head := []string{"Benchmark", "Config"}
	for c := 1; c <= opt.Workers; c++ {
		head = append(head, fmt.Sprintf("%dc", c))
	}
	t.row(head...)
	geoDyn := make([]float64, opt.Workers)
	geoOr := make([]float64, opt.Workers)
	counts := 0
	for _, name := range opt.names() {
		row := []string{name, "Dynamic ATM"}
		for _, s := range perCore[name] {
			row = append(row, fx(s))
		}
		t.row(row...)
		row = []string{"", "Oracle(95%)"}
		for _, s := range perCoreOr[name] {
			row = append(row, fx(s))
		}
		t.row(row...)
		counts++
	}
	for c := 0; c < opt.Workers; c++ {
		var ds, os []float64
		for _, name := range opt.names() {
			ds = append(ds, perCore[name][c])
			os = append(os, perCoreOr[name][c])
		}
		geoDyn[c] = geomean(ds)
		geoOr[c] = geomean(os)
	}
	rowD := []string{"geomean", "Dynamic ATM"}
	rowO := []string{"", "Oracle(95%)"}
	for c := 0; c < opt.Workers; c++ {
		rowD = append(rowD, fx(geoDyn[c]))
		rowO = append(rowO, fx(geoOr[c]))
	}
	t.row(rowD...)
	t.row(rowO...)
	t.flush()
}

// stateShare renders one lane's state profile.
func stateShare(ds []time.Duration) string {
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("exec %.0f%% hash %.0f%% memo %.0f%% idle %.0f%%",
		100*float64(ds[trace.StateExec])/float64(total),
		100*float64(ds[trace.StateHash])/float64(total),
		100*float64(ds[trace.StateMemo])/float64(total),
		100*float64(ds[trace.StateIdle])/float64(total))
}

// Fig7 reproduces Fig. 7: Gauss-Seidel execution traces at 2 and 8 cores,
// summarized as per-core state profiles and mean ATM-state interval
// widths (the paper observes hash and memoization states are ~60% slower
// at 8 cores due to shared-memory contention).
func Fig7(opt Options) {
	fmt.Fprintf(opt.Out, "Fig. 7: Gauss-Seidel trace, ATM state widths at 2 vs %d cores (scale=%s)\n", opt.Workers, opt.Scale)
	f := FactoryFor("GS")
	for _, cores := range []int{2, opt.Workers} {
		ro := opt.runOpt()
		ro.Detail = true
		o := RunOne(f, opt.Scale, cores, Dynamic(true), ro)
		fmt.Fprintf(opt.Out, "\n%d cores (elapsed %v):\n", cores, o.Elapsed.Round(time.Millisecond))
		t := newTable(opt.Out)
		t.row("Core", "Profile")
		durs := o.Tracer.Durations()
		for w := 0; w < cores; w++ {
			t.row(fmt.Sprintf("Core %d", w+1), stateShare(durs[w]))
		}
		t.flush()
		trace.RenderTimeline(opt.Out, o.Tracer, cores, 100)
		var hashN, memoN int
		var hashT, memoT time.Duration
		for w := 0; w < cores; w++ {
			for _, iv := range o.Tracer.Intervals(w) {
				switch iv.State {
				case trace.StateHash:
					hashN++
					hashT += iv.End - iv.Start
				case trace.StateMemo:
					memoN++
					memoT += iv.End - iv.Start
				}
			}
		}
		if hashN > 0 {
			fmt.Fprintf(opt.Out, "mean hash-key interval: %v over %d intervals\n", (hashT / time.Duration(hashN)).Round(time.Microsecond), hashN)
		}
		if memoN > 0 {
			fmt.Fprintf(opt.Out, "mean memoization interval: %v over %d intervals\n", (memoT / time.Duration(memoN)).Round(time.Microsecond), memoN)
		}
	}
}

// Fig8 reproduces Fig. 8: Blackscholes with and without ATM, with the
// ready-queue depth statistics that expose the task-creation-throughput
// bottleneck (with ATM the queue drains faster than the master can fill
// it).
func Fig8(opt Options) {
	fmt.Fprintf(opt.Out, "Fig. 8: Blackscholes task creation throughput (scale=%s, workers=%d)\n", opt.Scale, opt.Workers)
	f := FactoryFor("Blackscholes")
	for _, spec := range []ATMSpec{Dynamic(true), Baseline()} {
		ro := opt.runOpt()
		ro.Detail = true
		o := RunOne(f, opt.Scale, opt.Workers, spec, ro)
		fmt.Fprintf(opt.Out, "\n%s (elapsed %v):\n", spec.Name(), o.Elapsed.Round(time.Millisecond))
		durs := o.Tracer.Durations()
		t := newTable(opt.Out)
		t.row("Lane", "Profile")
		for w := 0; w < opt.Workers; w++ {
			t.row(fmt.Sprintf("Core %d", w+1), stateShare(durs[w]))
		}
		t.flush()
		trace.RenderTimeline(opt.Out, o.Tracer, opt.Workers+1, 100)
		depths := o.Tracer.Depths()
		if len(depths) > 0 {
			zero, max, sum := 0, 0, 0
			for _, d := range depths {
				if d.Depth == 0 {
					zero++
				}
				if d.Depth > max {
					max = d.Depth
				}
				sum += d.Depth
			}
			fmt.Fprintf(opt.Out, "ready tasks: mean %.1f, max %d, empty-queue fraction %.0f%% (%d samples)\n",
				float64(sum)/float64(len(depths)), max, 100*float64(zero)/float64(len(depths)), len(depths))
		}
	}
}

// Fig9 reproduces Fig. 9: cumulative generated reuse against normalized
// task creation id, per benchmark, under dynamic ATM.
func Fig9(opt Options) {
	fmt.Fprintf(opt.Out, "Fig. 9: redundancy generation (scale=%s); columns: normalized task id, cumulative reuse\n", opt.Scale)
	for _, name := range opt.names() {
		ro := opt.runOpt()
		ro.Trace = true
		o := RunOne(FactoryFor(name), opt.Scale, opt.Workers, Dynamic(true), ro)
		xs, ys := o.Tracer.CumulativeReuse()
		fmt.Fprintf(opt.Out, "\n%s: %d reuse-generating tasks, reuse %.1f%%\n", name, len(xs), 100*o.Reuse())
		step := 1
		if len(xs) > 16 {
			step = len(xs) / 16
		}
		t := newTable(opt.Out)
		for i := 0; i < len(xs); i += step {
			t.rowf("%.3f\t%.3f", xs[i], ys[i])
		}
		if len(xs) > 0 {
			t.rowf("%.3f\t%.3f", xs[len(xs)-1], ys[len(ys)-1])
		}
		t.flush()
	}
}
