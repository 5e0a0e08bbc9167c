// Command benchmark is the repository's one benchmark (BENCHMARK.json
// names it): four workloads that between them load every layer of the
// stack, the end-to-end metrics a client of atmd or a user of the task
// runtime would see, and a per-layer ledger measured from outside each
// layer. README.md beside this file is the glossary.
//
//	go run ./benchmark --workload serve_hot_bin --seed 1 --seconds 20 --trace 0
//	go run ./benchmark -seed 1 -out a.jsonl          # every workload
//	go run ./benchmark compare a.jsonl b.jsonl
//
// The serve workloads build cmd/atmd and drive it as a child process;
// apps_dynamic runs the paper's applications in this process. With
// --trace 1 the same request streams are also replayed through each
// layer's public functions in-process, and the per-layer metrics are
// printed in place of the end-to-end ones. The last line of standard
// output is the run's result as one JSON object.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"syscall"
	"time"

	"atm/internal/apps"
)

// result collects one run's metric values and its operation counts.
type result struct {
	values              map[string]float64
	attempted, failed   int64
	audited, mismatched int64
	violations          []string // output checks that failed
	regime              []string // the workload did not reach the state it exists to measure
	notes               []string
	firstErr            string
}

func newResult() *result { return &result{values: map[string]float64{}} }

// set records a metric. Every metric is measured in exactly one place;
// a second value for a name is a bug in the benchmark and fails the run.
func (r *result) set(name string, v float64) {
	if _, dup := r.values[name]; dup {
		r.violate("metric %s was measured twice", name)
	}
	r.values[name] = v
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// violate records an output check that failed; the run is not correct.
func (r *result) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// outOfRegime records that the workload missed its regime (a warm
// table, an evicting one). The run is not correct; the miniature test,
// whose inputs are too small to reach any regime, tells it apart from a
// wrong output.
func (r *result) outOfRegime(format string, args ...any) {
	r.regime = append(r.regime, fmt.Sprintf(format, args...))
}

// count folds one load phase's operations into the run's totals.
func (r *result) count(st loadStats) {
	r.attempted += st.attempted
	r.failed += st.failed
	r.audited += st.audited
	r.mismatched += st.mismatched
	if r.firstErr == "" {
		r.firstErr = st.firstErr
	}
}

func (r *result) correct() bool {
	return len(r.violations) == 0 && len(r.regime) == 0 && r.mismatched == 0
}

// record is the JSON form of a run. The contract's last line is the
// subset {correct, attempted, failed, metrics}; -out files keep the
// rest so compare can tell runs apart.
type record struct {
	Workload  string                 `json:"workload,omitempty"`
	Seed      uint64                 `json:"seed,omitempty"`
	Trace     int                    `json:"trace,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func workloadNames() []string {
	names := make([]string, 0, len(serveSpecs)+1)
	for _, s := range serveSpecs {
		names = append(names, s.name)
	}
	return append(names, "apps_dynamic")
}

// env is where a run finds the source, where it may write, and how
// large its inputs are.
type env struct {
	root string // checkout root: cmd/atmd is built from here
	work string // the atmd binary, per-run scratch directories, span files
	size sizing
}

// sizing holds the input sizes the miniature test shrinks. Everything
// else about a run is the same at both sizes.
type sizing struct {
	hotKeys  uint64     // keys per kind of the hot workloads
	zipfFill int        // stream requests sent before the zipf restart
	restarts int        // restart phase repetitions; setup_s is their median
	replay   int        // requests per depth of the traced replay
	appScale apps.Scale // the applications' input scale
}

var fullSize = sizing{hotKeys: 1024, zipfFill: 8000, restarts: 9, replay: 2000, appScale: apps.ScaleBench}

// runWorkload runs one workload and returns its result.
func runWorkload(ctx context.Context, e env, name string, seed uint64, seconds float64, traced bool) (*result, error) {
	res := newResult()
	spec := slices.IndexFunc(serveSpecs, func(s serveSpec) bool { return s.name == name })
	switch {
	case name == "apps_dynamic":
		if err := runApps(ctx, e.size.appScale, seed, seconds, traced, res); err != nil {
			return nil, err
		}
	case spec < 0:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
	default:
		if err := runServe(ctx, e, serveSpecs[spec], seed, seconds, traced, res); err != nil {
			return nil, err
		}
	}
	if traced {
		traceMicro(seed, res)
		if spec >= 0 && ctx.Err() == nil {
			if err := traceServe(e, serveSpecs[spec], seed, res); err != nil {
				return nil, err
			}
		}
	}
	return res, ctx.Err()
}

// toRecord selects the metrics the mode reports. Every end-to-end
// metric must have been measured; a per-layer metric a workload does
// not reach reads 0.
func toRecord(name string, seed uint64, traced bool, res *result) (record, error) {
	rec := record{Workload: name, Seed: seed, Correct: res.correct(), Attempted: max(res.attempted, 1),
		Failed: res.failed, Metrics: map[string]metricValue{}}
	list := endToEnd
	if traced {
		rec.Trace = 1
		list = perLayer
	}
	for _, m := range list {
		v, ok := res.values[m.name]
		if !ok && !traced {
			return rec, fmt.Errorf("end-to-end metric %s was not measured", m.name)
		}
		rec.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return rec, nil
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		workload = flag.String("workload", "", "run one workload (default: all of "+fmt.Sprint(workloadNames())+")")
		seed     = flag.Uint64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 20, "measured seconds per workload")
		trace    = flag.Int("trace", 0, "1 = traced run: print the per-layer metrics in place of the end-to-end ones")
		out      = flag.String("out", "", "also append each workload's result to this file, one JSON object per line")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark [--workload name] [--seed n] [--seconds s] [--trace 0|1] [--out file] | compare a b")
		os.Exit(2)
	}
	os.Exit(run(*workload, *seed, *seconds, *trace == 1, *out))
}

func run(workload string, seed uint64, seconds float64, traced bool, out string) int {
	// A signal cancels the context; every phase checks it and the
	// deferred clean-up kills the child and removes the scratch files.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	started := time.Now()
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	e := env{root: root, work: filepath.Join(root, buildDir), size: fullSize}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	names := workloadNames()
	if workload != "" {
		names = []string{workload}
	}
	fmt.Printf("benchmark: nproc %d, GOMAXPROCS %d, %s, commit %s, seed %d, %.3g s per workload, traced %v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), seed, seconds, traced)

	status := 0
	var lines [][]byte
	for _, name := range names {
		line, correct, err := runAndReport(ctx, e, name, seed, seconds, traced, out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		if !correct {
			status = 1
		}
		lines = append(lines, line)
	}
	fmt.Printf("benchmark: total wall time %.1f s\n", time.Since(started).Seconds())
	for _, line := range lines {
		fmt.Printf("%s\n", line)
	}
	return status
}

// runAndReport runs one workload, prints its metrics, appends its
// record to out when asked, and returns the contract's result line.
func runAndReport(ctx context.Context, e env, name string, seed uint64, seconds float64, traced bool, out string) (line []byte, correct bool, err error) {
	t0 := time.Now()
	// A workload that has not finished in four times its measured
	// seconds plus a minute is hung: give up rather than wait.
	ctx, stop := context.WithTimeout(ctx, time.Duration(4*seconds*float64(time.Second))+time.Minute)
	defer stop()
	res, err := runWorkload(ctx, e, name, seed, seconds, traced)
	if err != nil {
		return nil, false, err
	}
	rec, err := toRecord(name, seed, traced, res)
	if err != nil {
		return nil, false, err
	}
	printResult(name, time.Since(t0), res, rec, traced)
	if out != "" {
		if err := appendRecord(out, rec); err != nil {
			return nil, false, err
		}
	}
	// The contract's result line carries no run identity.
	correct = rec.Correct
	rec.Workload, rec.Seed, rec.Trace = "", 0, 0
	line, err = json.Marshal(rec)
	return line, correct, err
}

func printResult(name string, wall time.Duration, res *result, rec record, traced bool) {
	fmt.Printf("\n== %s (%.1f s wall) ==\n", name, wall.Seconds())
	for _, n := range res.notes {
		fmt.Println("  " + n)
	}
	list := endToEnd
	if traced {
		list = perLayer
	}
	for _, m := range list {
		fmt.Printf("  %-34s %16.6g %s\n", m.name, rec.Metrics[m.name].Value, m.unit)
	}
	fmt.Printf("  ops_attempted %d  ops_failed %d  audited %d  mismatched %d\n", rec.Attempted, rec.Failed, res.audited, res.mismatched)
	if res.firstErr != "" {
		fmt.Printf("  first failure: %s\n", res.firstErr)
	}
	for _, v := range res.violations {
		fmt.Printf("  CHECK FAILED: %s\n", v)
	}
	for _, v := range res.regime {
		fmt.Printf("  CHECK FAILED: workload out of its regime: %s\n", v)
	}
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
