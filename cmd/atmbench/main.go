// Command atmbench regenerates the tables and figures of "ATM: Approximate
// Task Memoization in the Runtime System" (IPDPS 2017) on this machine.
//
// Usage:
//
//	atmbench -experiment fig3 -scale bench -workers 8
//	atmbench -experiment all -bench Blackscholes,LU
//	atmbench -experiment stats -bench Swaptions -mode dynamic
//	atmbench -experiment stats -bench Kmeans -chain warm.atmchain # twice: the 2nd starts warm
//	atmbench -experiment sweep -bench Blackscholes,Kmeans -repeats 3
//
// Experiments: table1 table2 table3 fig3 fig4 fig5 fig6 fig7 fig8 fig9
// stats sweep all. Warm state crosses processes in one way, the chain
// file: -chain warm-starts a stats run from it and appends a delta
// record of the run's churn (plus one every -delta-every while it
// runs), and a file `snapshotctl merge` or `compact` wrote is a chain
// too. sweep runs each benchmark -repeats times against a chain of its
// own under -shard-dir (the amortization scenario of
// docs/persistence.md), then compacts and merges the chains and
// warm-starts every benchmark from a copy of the merged snapshot (the
// snapshotctl merge workflow). See docs/architecture.md for the layer
// walk and PERFORMANCE.md for recorded measurements.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"atm/internal/apps"
	"atm/internal/harness"
	"atm/internal/persist"
	"atm/internal/taskrt"
)

func main() {
	var (
		experiment = flag.String("experiment", "fig3", "table1|table2|table3|fig3|fig4|fig5|fig6|fig7|fig8|fig9|stats|sweep|all")
		benchList  = flag.String("bench", "", "comma-separated benchmark filter (Blackscholes,GS,Jacobi,Kmeans,LU,Swaptions)")
		scaleStr   = flag.String("scale", "bench", "workload scale: test|bench|paper")
		workers    = flag.Int("workers", defaultWorkers(), "number of worker cores")
		repeats    = flag.Int("repeats", 1, "timing repetitions (median reported)")
		seed       = flag.Uint64("seed", 0, "ATM sampling seed")
		mode       = flag.String("mode", "dynamic", "stats experiment: baseline|static|dynamic|fixed")
		level      = flag.Int("level", 15, "stats experiment: p level for -mode fixed")
		noIKT      = flag.Bool("no-ikt", false, "stats experiment: disable the IKT")
		policyStr  = flag.String("policy", "fifo", "scheduling policy: fifo|lifo")
		det        = flag.Bool("det", false, "run under the deterministic replay executor: single goroutine, schedule drawn from -seed (see docs/determinism.md)")
		schedStr   = flag.String("sched", "", "deterministic ready-queue discipline: fifo|lifo|random|adversarial (implies -det; default follows -policy)")
		schedSeed  = flag.Uint64("schedseed", 0, "deterministic replay seed: implies -det and overrides -seed when nonzero")
		chainPath  = flag.String("chain", "", "stats: incremental chain file — warm-start from it when present and append a delta record of this run's churn (suffixed per benchmark when several are selected)")
		deltaEvery = flag.Duration("delta-every", 0, "stats: append a delta record to -chain every interval")
		shardDir   = flag.String("shard-dir", "", "sweep: directory for the per-benchmark chain files and the merged snapshot copies (default: a temp directory)")
		recoverStr = flag.String("recover", "strict", "damaged-snapshot policy: strict (report, run cold) | salvage (repair torn tails, warm-start the prefix) | cold (discard, run cold)")
		noSync     = flag.Bool("nosync", false, "skip fsync on snapshot saves (benchmarking only: a crash may lose or tear the most recent saves)")
		budgetStr  = flag.String("tht-budget", "", "stats: THT memory budget in bytes, k/m/g suffixes accepted (empty = unbounded)")
	)
	flag.Parse()
	if *deltaEvery > 0 && *chainPath == "" {
		fmt.Fprintln(os.Stderr, "-delta-every needs -chain: there is no file to append to")
		os.Exit(2)
	}

	recoverPolicy, err := harness.ParseRecoverPolicy(*recoverStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	budget, err := harness.ParseByteSize(*budgetStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var policy taskrt.SchedPolicy
	switch *policyStr {
	case "fifo":
		policy = taskrt.PolicyFIFO
	case "lifo":
		policy = taskrt.PolicyLIFO
	default:
		fmt.Fprintf(os.Stderr, "unknown policy %q\n", *policyStr)
		os.Exit(2)
	}

	detSched, err := taskrt.ParseDetSched(*schedStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *schedSeed != 0 {
		*seed = *schedSeed
		*det = true
	}
	if *schedStr != "" {
		*det = true
	}

	var scale apps.Scale
	switch *scaleStr {
	case "test":
		scale = apps.ScaleTest
	case "bench":
		scale = apps.ScaleBench
	case "paper":
		scale = apps.ScalePaper
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleStr)
		os.Exit(2)
	}

	opt := harness.Options{
		Scale:   scale,
		Workers: *workers,
		Repeats: *repeats,
		Run: harness.RunOptions{
			Seed:          *seed,
			Policy:        policy,
			Deterministic: *det,
			DetSched:      detSched,
			Recover:       recoverPolicy,
		},
		Out: os.Stdout,
	}
	if *noSync {
		opt.Run.Sync = persist.SyncOff
	}
	if *benchList != "" {
		for _, b := range strings.Split(*benchList, ",") {
			b = strings.TrimSpace(b)
			if harness.FactoryFor(b) == nil {
				fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", b)
				os.Exit(2)
			}
			opt.Benchmarks = append(opt.Benchmarks, b)
		}
	}

	switch *experiment {
	case "table1":
		harness.Table1(opt)
	case "table2":
		harness.Table2(opt)
	case "table3":
		harness.Table3(opt)
	case "fig3", "fig4":
		harness.Fig3(opt)
	case "fig5":
		harness.Fig5(opt)
	case "fig6":
		harness.Fig6(opt)
	case "fig7":
		harness.Fig7(opt)
	case "fig8":
		harness.Fig8(opt)
	case "fig9":
		harness.Fig9(opt)
	case "stats":
		runStats(opt, *mode, *level, !*noIKT, *chainPath, *deltaEvery, budget)
	case "sweep":
		// The repeated-experiment sweep: N repetitions of each benchmark
		// appending to its own chain (repetition 1 is cold), then a warm
		// restart of each from the merged chains.
		reps := *repeats
		if reps < 2 {
			reps = 5
		}
		dir := *shardDir
		if dir == "" {
			if dir, err = os.MkdirTemp("", "atmbench-sweep"); err != nil {
				fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
				os.Exit(1)
			}
		}
		if err := harness.Sweep(opt, reps, dir); err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			os.Exit(1)
		}
	case "all":
		harness.Table1(opt)
		fmt.Println()
		harness.Table2(opt)
		fmt.Println()
		harness.Table3(opt)
		fmt.Println()
		harness.Fig3(opt)
		fmt.Println()
		harness.Fig5(opt)
		fmt.Println()
		harness.Fig6(opt)
		fmt.Println()
		harness.Fig7(opt)
		fmt.Println()
		harness.Fig8(opt)
		fmt.Println()
		harness.Fig9(opt)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
}

func defaultWorkers() int {
	n := runtime.NumCPU()
	if n > 8 {
		n = 8 // the paper's machine has 8 cores
	}
	return n
}

// runStats runs each selected benchmark once under one configuration and
// dumps the detailed ATM statistics. chain warm-starts the engine from a
// chain file and saves the run's churn to it (plus a save every
// deltaEvery while running): each save appends a delta, or rewrites the
// chain as one base once the deltas outgrow it.
func runStats(opt harness.Options, mode string, level int, ikt bool, chain string, deltaEvery time.Duration, budget int64) {
	var spec harness.ATMSpec
	switch mode {
	case "baseline":
		spec = harness.Baseline()
	case "static":
		spec = harness.Static(ikt)
	case "dynamic":
		spec = harness.Dynamic(ikt)
	case "fixed":
		spec = harness.Fixed(level, ikt)
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", mode)
		os.Exit(2)
	}
	names := opt.Benchmarks
	if len(names) == 0 {
		names = harness.Benchmarks()
	}
	for _, name := range names {
		// With several benchmarks selected, key the chain per benchmark
		// like the sweep does, so each keeps its warm state in a file of
		// its own.
		bchain := chain
		if len(names) > 1 && bchain != "" {
			bchain += "." + name
			fmt.Printf("%s: chain file %s\n", name, bchain)
		}
		ro := opt.Run
		ro.SnapshotChain, ro.SnapshotDeltaEvery = bchain, deltaEvery
		ro.THTBudgetBytes = budget
		base := harness.RunOne(harness.FactoryFor(name), opt.Scale, opt.Workers, harness.Baseline(), opt.Run)
		o := harness.RunOne(harness.FactoryFor(name), opt.Scale, opt.Workers, spec, ro)
		if o.SnapshotErr != nil {
			fmt.Fprintf(os.Stderr, "%s: snapshot: %v\n", name, o.SnapshotErr)
			os.Exit(1)
		}
		start := "cold"
		if o.WarmStart {
			start = fmt.Sprintf("warm (%d entries restored)", o.RestoredEntries)
		}
		if o.Salvaged {
			fmt.Printf("%s: salvaged torn snapshot — kept %d records / %d bytes, dropped %d torn bytes\n",
				name, o.Recovery.RecordsKept, o.Recovery.BytesKept, o.Recovery.BytesTruncated)
		}
		if o.ColdFallback {
			fmt.Printf("%s: damaged snapshot could not warm-start (-recover %s); started cold\n", name, opt.Run.Recover)
		}
		if bchain != "" {
			fmt.Printf("%s: saved %d time(s), %d bytes written, to %s\n", name, o.DeltaSaves, o.DeltaBytes, bchain)
		}
		fmt.Printf("%s under %s (%s start): elapsed=%v speedup=%.2fx correctness=%.3f%% reuse=%.1f%% tht-hit-ratio=%.1f%%\n",
			name, spec.Name(), start, o.Elapsed, harness.Speedup(base, o), o.App.Correctness(base.App), 100*o.Reuse(), 100*o.THTHitRatio())
		for _, ts := range o.Stats.Types {
			fmt.Printf("  type %-24s tasks=%-6d exec=%-6d memoTHT=%-6d memoIKT=%-5d trainHits=%-5d trainFail=%-4d level=%d (p=%s) steady=%v hash=%v copy=%v\n",
				ts.Name, ts.Tasks, ts.Executed, ts.MemoizedTHT, ts.MemoizedIKT,
				ts.TrainingHits, ts.TrainingFailures, ts.Level,
				fmtP(ts.P), ts.Steady, ts.HashTime.Round(1e3), ts.CopyTime.Round(1e3))
		}
		s := o.Stats
		fmt.Printf("  THT: %d entries, %s, lookups=%d hits=%d evictions=%d; IKT: inserts=%d defers=%d rejected=%d\n",
			s.THTEntries, fmtBytes(s.THTBytes), s.THTLookups, s.THTHits, s.THTEvictions,
			s.IKTInserts, s.IKTDefers, s.IKTRejected)
		if s.THTBudgetBytes > 0 {
			fmt.Printf("  budget: %s — budget evictions=%d admission rejects=%d\n",
				fmtBytes(s.THTBudgetBytes), s.THTBudgetEvictions, s.THTAdmissionRejects)
		}
		fmt.Println()
	}
}

func fmtP(p float64) string { return fmt.Sprintf("%.4g%%", 100*p) }

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
