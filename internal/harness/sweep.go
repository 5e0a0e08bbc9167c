package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"atm/internal/core"
	"atm/internal/persist"
)

// Sweep reproduces the repeated-experiment sweep the paper's
// amortization argument rests on, with warm state carried between
// repetitions by chain files (docs/persistence.md).
//
// Each selected benchmark is one shard of the sweep: it runs reps
// repetitions against a chain of its own under dir. Repetition 1
// starts cold and creates the chain, every repetition appends a delta
// record of just its churn, and every later one warm-starts from what
// the earlier ones appended — so incremental warm-up, e.g. a dynamic
// type finishing its training in rep 2, compounds. The report shows,
// per repetition, the elapsed time and its speedup over rep 1, reuse,
// THT hit ratio, restored entries and the bytes appended (a fully warm
// repetition appends a near-empty record), and closes with the
// warm-vs-cold deltas.
//
// The chains are then compacted and merged (persist.Compact +
// persist.MergeSnapshots, what `snapshotctl merge` does for a sweep
// split across machines), and each benchmark restarts warm from its own
// copy of the merged snapshot, so no run mutates a file another reads.
func Sweep(opt Options, reps int, dir string) error {
	if reps < 2 {
		reps = 2
	}
	spec := Dynamic(true)
	names := opt.names()
	fmt.Fprintf(opt.Out, "Warm-start sweep: %d repetitions under %s, chains under %s\n",
		reps, spec.Name(), dir)

	colds := make([]Outcome, len(names))
	fulls := make([]*core.Snapshot, len(names))
	var chainBytes int64
	for i, name := range names {
		file := filepath.Join(dir, name+".atmchain")
		t := newTable(opt.Out)
		t.row("Bench", "Rep", "Start", "Elapsed", "Speedup", "Reuse", "THTHitRatio", "RestoredEntries", "Append")
		var last Outcome
		for rep := 1; rep <= reps; rep++ {
			ro := opt.runOpt()
			ro.SnapshotChain = file
			o := RunOne(FactoryFor(name), opt.Scale, opt.Workers, spec, ro)
			if o.SnapshotErr != nil {
				return fmt.Errorf("sweep %s rep %d: %w", name, rep, o.SnapshotErr)
			}
			if rep == 1 {
				colds[i] = o
			}
			last = o
			t.row(name, fmt.Sprint(rep), startKind(o),
				o.Elapsed.Round(time.Microsecond).String(),
				fx(Speedup(colds[i], o)),
				fpct(100*o.Reuse()),
				fpct(100*o.THTHitRatio()),
				fmt.Sprint(o.RestoredEntries),
				fmt.Sprintf("%dB", o.DeltaBytes))
		}
		t.flush()
		cold := colds[i]
		fmt.Fprintf(opt.Out,
			"  %s warm-vs-cold: reuse %s -> %s, THT hit ratio %s -> %s, elapsed %v -> %v (%s)\n",
			name,
			fpct(100*cold.Reuse()), fpct(100*last.Reuse()),
			fpct(100*cold.THTHitRatio()), fpct(100*last.THTHitRatio()),
			cold.Elapsed.Round(time.Microsecond), last.Elapsed.Round(time.Microsecond),
			fx(Speedup(cold, last)))

		base, deltas, err := persist.LoadChain(file)
		if err != nil {
			return fmt.Errorf("sweep %s: %w", name, err)
		}
		if fulls[i], err = persist.Compact(base, deltas...); err != nil {
			return fmt.Errorf("sweep %s: %w", name, err)
		}
		if fi, err := os.Stat(file); err == nil {
			chainBytes += fi.Size()
		}
	}

	merged, err := persist.MergeSnapshots(fulls...)
	if err != nil {
		return fmt.Errorf("merge: %w", err)
	}
	fmt.Fprintf(opt.Out, "Merged %d chain(s) (%dB total) into one snapshot of %d sections\n",
		len(names), chainBytes, len(merged.Types))

	t := newTable(opt.Out)
	t.row("Bench", "Start", "Elapsed", "Speedup", "Reuse", "THTHitRatio", "RestoredEntries")
	for i, name := range names {
		file := filepath.Join(dir, name+".merged.atmchain")
		if err := persist.SaveChain(file, merged, nil); err != nil {
			return err
		}
		ro := opt.runOpt()
		ro.SnapshotChain = file
		o := RunOne(FactoryFor(name), opt.Scale, opt.Workers, spec, ro)
		if o.SnapshotErr != nil {
			return fmt.Errorf("merged warm run %s: %w", name, o.SnapshotErr)
		}
		t.row(name, startKind(o),
			o.Elapsed.Round(time.Microsecond).String(),
			fx(Speedup(colds[i], o)),
			fpct(100*o.Reuse()),
			fpct(100*o.THTHitRatio()),
			fmt.Sprint(o.RestoredEntries))
	}
	t.flush()
	return nil
}

// startKind names how a run's engine came up.
func startKind(o Outcome) string {
	if o.WarmStart {
		return "warm"
	}
	return "cold"
}
