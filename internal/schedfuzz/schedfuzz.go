// Package schedfuzz is a seeded schedule- and fault-fuzzing harness for
// the taskrt/core/persist stack. A scenario is a function that drives a
// deterministic runtime (taskrt.Config.Deterministic) and checks its own
// invariants — dependence order, exactly-once completion, memoization
// correctness, delta-partition exactness, no temp-file residue. The
// harness runs each scenario across N seeds; everything a run does —
// scheduling decisions, scenario shape, worker count, injected faults —
// derives from the one seed, so any failure replays bit-identically:
//
//	go test -run 'TestSchedFuzzCorpus/<scenario>' -schedseed=<seed> ./internal/schedfuzz
//
// Failing seeds worth keeping are committed to
// testdata/regression_seeds.txt and replayed by the ordinary test run.
// See docs/determinism.md for the workflow and the failpoint catalog.
package schedfuzz

import (
	"flag"
	"fmt"
	"testing"

	"atm/internal/failpoint"
	"atm/internal/taskrt"
)

var (
	flagSeed  = flag.Uint64("schedseed", 0, "replay one schedfuzz seed instead of the sweep")
	flagSeeds = flag.Int("schedseeds", 0, "override the number of seeds per scenario")
	flagSched = flag.String("schedsched", "", "override the per-seed sched discipline (fifo|lifo|random|adversarial)")
)

// splitmix64 advances *x and returns the next value of its stream (the
// same expander taskrt's deterministic executor uses; duplicated here so
// scenario shape and schedule draw from provably separate streams).
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Ctx is one seeded scenario run. The scenario draws its shape (task
// counts, region choices, fault plans) from the Ctx stream and builds
// runtimes through Runtime, which seeds the schedule from the same
// integer — so shape and schedule replay together.
type Ctx struct {
	// Seed is the run's seed: the single integer that replays it.
	Seed uint64
	// Sched is the deterministic discipline this seed runs under.
	Sched taskrt.DetSched
	// Dir is a per-run temp directory for persistence scenarios.
	Dir string

	rng   uint64
	fails []string
}

// Errorf records an invariant violation; the run continues so one seed
// reports everything it found.
func (c *Ctx) Errorf(format string, args ...any) {
	c.fails = append(c.fails, fmt.Sprintf(format, args...))
}

// Uint64 draws from the scenario-shape stream.
func (c *Ctx) Uint64() uint64 { return splitmix64(&c.rng) }

// Intn draws a shape value in [0, n).
func (c *Ctx) Intn(n int) int { return int(c.Uint64() % uint64(n)) }

// Runtime builds a deterministic runtime for this run: cfg is taken as
// given except that Deterministic/Seed/DetSched are forced to the run's,
// an unset worker count is drawn from the shape stream (1–8 lanes), and
// an unset throttle window is pinned to 512, so that a change to the
// runtime's default window leaves recorded schedules replaying as they
// did. No scenario keeps 512 tasks in flight; throttle-drain sets a
// window of its own that its task graph outgrows, to exercise the
// master-side drain (drainBacklog).
func (c *Ctx) Runtime(cfg taskrt.Config) *taskrt.Runtime {
	cfg.Deterministic = true
	cfg.Seed = c.Seed
	cfg.DetSched = c.Sched
	if cfg.Workers <= 0 {
		cfg.Workers = 1 + c.Intn(8)
	}
	if cfg.ThrottleWindow == 0 {
		cfg.ThrottleWindow = 512
	}
	return taskrt.New(cfg)
}

// Scenario is one named fuzz target.
type Scenario struct {
	Name string
	Run  func(*Ctx)
}

// Options configures a sweep.
type Options struct {
	// Seeds is the number of seeds per scenario (default 12; the CI
	// schedfuzz-smoke job raises it with -schedseeds).
	Seeds int
	// FirstSeed is the first seed of the sweep (default 1; seed 0 is
	// reserved as the flag's "unset" value).
	FirstSeed uint64
}

// Run sweeps every scenario across the configured seeds as subtests.
// With -schedseed=S only that seed runs — the replay path.
func Run(t *testing.T, scenarios []Scenario, opts Options) {
	seeds := opts.Seeds
	if *flagSeeds > 0 {
		seeds = *flagSeeds
	}
	if seeds <= 0 {
		seeds = 12
	}
	first := opts.FirstSeed
	if first == 0 {
		first = 1
	}
	for _, sc := range scenarios {
		t.Run(sc.Name, func(t *testing.T) {
			if *flagSeed != 0 {
				RunSeed(t, sc, *flagSeed)
				return
			}
			for s := first; s < first+uint64(seeds); s++ {
				RunSeed(t, sc, s)
			}
		})
	}
}

// schedFor derives the seed's discipline (overridable with -schedsched).
// It is a pure function of the seed, so a replay under the same seed
// runs the same discipline without carrying extra state.
func schedFor(seed uint64) taskrt.DetSched {
	if *flagSched != "" {
		s, err := taskrt.ParseDetSched(*flagSched)
		if err != nil {
			panic(err)
		}
		if s != taskrt.DetSchedPolicy {
			return s
		}
	}
	x := seed ^ 0xd15ea5e5eed
	return taskrt.DetSched(1 + splitmix64(&x)%4)
}

// RunSeed runs one scenario under one seed, converting panics (including
// the deterministic executor's stall reports) and recorded Errorf
// failures into test failures that carry the replay command.
func RunSeed(t *testing.T, sc Scenario, seed uint64) {
	t.Helper()
	sched := schedFor(seed)
	c := &Ctx{Seed: seed, Sched: sched, Dir: t.TempDir(), rng: seed ^ 0x5eedf00dcafe}
	// Scenarios arm process-global failpoints; never leave one armed for
	// the next seed (and never run seeds in parallel).
	defer failpoint.DisableAll()
	completed := false
	var pv any
	func() {
		defer func() { pv = recover() }()
		sc.Run(c)
		completed = true
	}()
	if !completed {
		t.Fatalf("scenario %q panicked under seed %d (sched=%s): %v\n%s",
			sc.Name, seed, sched, pv, ReplayHint(sc.Name, seed))
	}
	if len(c.fails) > 0 {
		for _, f := range c.fails {
			t.Errorf("seed %d (sched=%s): %s", seed, sched, f)
		}
		t.Fatalf("scenario %q failed under seed %d\n%s", sc.Name, seed, ReplayHint(sc.Name, seed))
	}
}

// ReplayHint is the command that replays a failing seed.
func ReplayHint(name string, seed uint64) string {
	return fmt.Sprintf("replay: go test -run 'TestSchedFuzzCorpus/%s' -schedseed=%d ./internal/schedfuzz", name, seed)
}
