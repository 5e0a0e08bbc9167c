package taskrt

import (
	"strings"
	"sync/atomic"
	"testing"

	"atm/internal/failpoint"
	"atm/internal/region"
)

// detRunOrder runs a fixed dependence-heavy scenario (shape drawn from
// its own PRNG stream, identical across calls) under the deterministic
// executor and returns the task execution order.
func detRunOrder(seed uint64, sched DetSched) []uint64 {
	return detOrder(Config{
		Workers:        4,
		Deterministic:  true,
		Seed:           seed,
		DetSched:       sched,
		ThrottleWindow: 256,
	}, 300, 8, 1, 64)
}

// detOrder submits n tasks over nregs regions of elems float64s each,
// fencing after a batch with probability 1/fenceOneIn (never when 0), and
// returns the execution order under cfg, which must be deterministic.
func detOrder(cfg Config, n, nregs, elems int, fenceOneIn uint64) []uint64 {
	rt := New(cfg)
	defer rt.Close()
	var order []uint64
	tt := rt.RegisterType(TypeConfig{Name: "rec", Run: func(task *Task) {
		order = append(order, task.ID()) // det mode: bodies run on this goroutine
	}})
	regs := make([]*region.Float64, nregs)
	for i := range regs {
		regs[i] = region.NewFloat64(elems)
	}
	shape := uint64(0xabcdef12345)
	b := rt.BatcherN(16)
	for i := 0; i < n; i++ {
		r1 := regs[splitmix64(&shape)%uint64(nregs)]
		r2 := regs[splitmix64(&shape)%uint64(nregs)]
		switch splitmix64(&shape) % 3 {
		case 0:
			b.Add(tt, In(r1), Out(r2))
		case 1:
			b.Add(tt, InOut(r1))
		default:
			b.Add(tt, In(r1), In(r2))
		}
		if fenceOneIn != 0 && splitmix64(&shape)%fenceOneIn == 0 {
			b.Flush()
			rt.Wait()
		}
	}
	b.Flush()
	rt.Wait()
	return order
}

// TestDetDefaultWindowIgnoresPayload pins that a deterministic schedule
// depends on nothing but its configuration: with the window unset, a
// stream of 8 MiB-payload tasks over two regions, which piles up many
// tasks in flight, runs in the same order as under an explicit
// ThrottleWindow of 4096.
func TestDetDefaultWindowIgnoresPayload(t *testing.T) {
	for _, sched := range []DetSched{DetSchedFIFO, DetSchedRandom, DetSchedAdversarial} {
		cfg := Config{Workers: 4, Deterministic: true, Seed: 7, DetSched: sched}
		unset := detOrder(cfg, 3000, 2, 1<<20, 0)
		cfg.ThrottleWindow = 4096
		pinned := detOrder(cfg, 3000, 2, 1<<20, 0)
		if len(unset) != 3000 || len(pinned) != 3000 {
			t.Fatalf("%v: ran %d and %d tasks, want 3000", sched, len(unset), len(pinned))
		}
		for i := range unset {
			if unset[i] != pinned[i] {
				t.Fatalf("%v: unset window diverged from 4096 at step %d: %d vs %d", sched, i, unset[i], pinned[i])
			}
		}
	}
}

// TestDetDrainsAtWindow runs the dependence soup through a window of 16,
// so the master drains the backlog itself (drainBacklog) many times: every
// task still runs, the same seed replays the same order, and the order
// differs from an undrained run under the default window.
func TestDetDrainsAtWindow(t *testing.T) {
	cfg := Config{Workers: 4, Deterministic: true, Seed: 7, DetSched: DetSchedRandom, ThrottleWindow: 16}
	a := detOrder(cfg, 3000, 2, 1, 0)
	b := detOrder(cfg, 3000, 2, 1, 0)
	cfg.ThrottleWindow = 0
	wide := detOrder(cfg, 3000, 2, 1, 0)
	if len(a) != 3000 || len(b) != 3000 || len(wide) != 3000 {
		t.Fatalf("ran %d, %d and %d tasks, want 3000", len(a), len(b), len(wide))
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at step %d: %d vs %d", i, a[i], b[i])
		}
		same = same && a[i] == wide[i]
	}
	if same {
		t.Fatal("a window of 16 ran the same order as the default window: the drain never fired")
	}
}

// TestDetSameSeedBitIdenticalOrder pins the mode's defining property and
// the PR's acceptance criterion: the same seed yields a bit-identical
// task execution order across independent runs, for every discipline
// that draws scheduling decisions from the PRNG.
func TestDetSameSeedBitIdenticalOrder(t *testing.T) {
	for _, sched := range []DetSched{DetSchedRandom, DetSchedAdversarial, DetSchedLIFO} {
		a := detRunOrder(12345, sched)
		b := detRunOrder(12345, sched)
		if len(a) != 300 || len(b) != 300 {
			t.Fatalf("%v: ran %d and %d tasks, want 300", sched, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: same seed diverged at step %d: %d vs %d", sched, i, a[i], b[i])
			}
		}
	}
}

// TestDetSeedsDiverge sanity-checks that the seed actually matters: two
// adversarial runs under different seeds should not produce the same
// schedule for a 300-task dependence soup (they legally could, but a
// collision here would mean the PRNG is not reaching the decisions).
func TestDetSeedsDiverge(t *testing.T) {
	a := detRunOrder(1, DetSchedAdversarial)
	b := detRunOrder(2, DetSchedAdversarial)
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical adversarial schedules")
	}
}

// TestDetFIFOIndependentSubmissionOrder pins DetSchedFIFO: independent
// tasks execute in exact submission order — yield points may run a
// prefix early, but oldest-first picking preserves the order.
func TestDetFIFOIndependentSubmissionOrder(t *testing.T) {
	rt := New(Config{Workers: 4, Deterministic: true, Seed: 99, DetSched: DetSchedFIFO})
	defer rt.Close()
	var order []uint64
	tt := rt.RegisterType(TypeConfig{Name: "rec", Run: func(task *Task) {
		order = append(order, task.ID())
	}})
	const n = 128
	for i := 0; i < n; i++ {
		rt.Submit(tt, InOut(region.NewFloat64(1)))
	}
	rt.Wait()
	if len(order) != n {
		t.Fatalf("ran %d tasks, want %d", len(order), n)
	}
	for i, id := range order {
		if id != uint64(i) {
			t.Fatalf("fifo order broken at step %d: task %d", i, id)
		}
	}
}

// deferNeverMemoizer defers the first memoizable task and never completes
// it — the lost-completion fault the stall detector must report.
type deferNeverMemoizer struct{ deferredOnce bool }

func (m *deferNeverMemoizer) OnReady(t *Task, worker int) Outcome {
	if !m.deferredOnce {
		m.deferredOnce = true
		return OutcomeDeferred
	}
	return OutcomeRun
}

func (m *deferNeverMemoizer) OnFinished(*Task, int) {}

// TestDetStallPanicReportsSeed pins the deterministic stall detector: a
// deferred task whose completion never arrives turns Wait into a panic
// that names the incomplete count and the replay seed, instead of the
// live mode's silent hang.
func TestDetStallPanicReportsSeed(t *testing.T) {
	rt := New(Config{Workers: 2, Deterministic: true, Seed: 77, Memoizer: &deferNeverMemoizer{}})
	tt := rt.RegisterType(TypeConfig{Name: "memo", Memoize: true, Run: func(*Task) {}})
	for i := 0; i < 4; i++ {
		rt.Submit(tt, InOut(region.NewFloat64(1)))
	}
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("stalled deterministic drain did not panic")
		}
		s, ok := p.(string)
		if !ok || !strings.Contains(s, "stalled") {
			t.Fatalf("unexpected panic: %v", p)
		}
		if !strings.Contains(s, "seed=77") {
			t.Fatalf("stall report does not carry the replay seed: %q", s)
		}
	}()
	rt.Wait()
}

// TestDetFailpointDroppedCompletionStalls wires the CompleteExternal
// failpoint through a deterministic run: the injected drop must surface
// as a seeded stall report, not a hang — the schedfuzz fault-schedule
// contract.
func TestDetFailpointDroppedCompletionStalls(t *testing.T) {
	defer failpoint.DisableAll()
	m := &deferOnceMemoizer{deferred: make(chan *Task, 1)}
	rt := New(Config{Workers: 2, Deterministic: true, Seed: 5, Memoizer: m})
	tt := rt.RegisterType(TypeConfig{Name: "memo", Memoize: true, Run: func(*Task) {}})
	failpoint.Enable(FailpointCompleteExternal, func() error { return failpoint.ErrInjected })
	for i := 0; i < 4; i++ {
		rt.Submit(tt, InOut(region.NewFloat64(1)))
	}
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("dropped CompleteExternal did not stall the drain")
		}
		if s, ok := p.(string); !ok || !strings.Contains(s, "seed=5") {
			t.Fatalf("unexpected panic: %v", p)
		}
	}()
	// Drive the executor until the memoizer has deferred a task (a
	// blocking receive would deadlock the single goroutine), then take
	// the provider path: the armed failpoint swallows the completion.
	for len(m.deferred) == 0 {
		if !rt.det.runOne() {
			t.Fatal("executor drained without deferring a task")
		}
	}
	rt.CompleteExternal(<-m.deferred)
	rt.Wait()
}

// TestResetRacesInflightBatch exercises Reset (barrier + registry drop +
// generation retirement) immediately after SubmitBatch, while the batch
// is still executing on live workers, then reuses the same regions in a
// fresh dependence epoch — the Reset/in-flight interleaving under -race.
func TestResetRacesInflightBatch(t *testing.T) {
	rounds := 60
	if testing.Short() {
		rounds = 10
	}
	for round := 0; round < rounds; round++ {
		rt := New(Config{Workers: 4})
		var ran atomic.Int64
		tt := rt.RegisterType(TypeConfig{Name: "w", Run: func(*Task) { ran.Add(1) }})
		regs := make([]*region.Float64, 4)
		for i := range regs {
			regs[i] = region.NewFloat64(8)
		}
		mkBatch := func() []BatchEntry {
			batch := make([]BatchEntry, 0, 64)
			for i := 0; i < 64; i++ {
				batch = append(batch, Desc(tt, InOut(regs[i%len(regs)])))
			}
			return batch
		}
		rt.SubmitBatch(mkBatch())
		rt.Reset() // races the in-flight batch: Reset's Wait is the barrier
		// Same regions, fresh epoch: slots restamp under the new generation.
		rt.SubmitBatch(mkBatch())
		rt.Close()
		if got := ran.Load(); got != 128 {
			t.Fatalf("round %d: ran %d tasks, want 128", round, got)
		}
	}
}

// TestCloseRacesInflightBatch exercises Close called while a just-
// submitted batch is still in flight: Close's Wait must act as the full
// barrier and worker shutdown must not lose tasks.
func TestCloseRacesInflightBatch(t *testing.T) {
	rounds := 60
	if testing.Short() {
		rounds = 10
	}
	for round := 0; round < rounds; round++ {
		rt := New(Config{Workers: 4})
		var ran atomic.Int64
		tt := rt.RegisterType(TypeConfig{Name: "w", Run: func(*Task) { ran.Add(1) }})
		r := region.NewFloat64(8)
		batch := make([]BatchEntry, 0, 64)
		for i := 0; i < 64; i++ {
			batch = append(batch, Desc(tt, InOut(r)))
		}
		rt.SubmitBatch(batch)
		rt.Close()
		if got := ran.Load(); got != 64 {
			t.Fatalf("round %d: ran %d tasks, want 64", round, got)
		}
	}
}

// TestLiveSeedReproducibleStealRNG pins the satellite contract that
// Config.Seed derives the live-mode steal RNGs: equal seeds give equal
// per-worker streams, different seeds differ.
func TestLiveSeedReproducibleStealRNG(t *testing.T) {
	mk := func(seed uint64) []uint64 {
		// Deterministic mode runs the identical wlocal seeding path but
		// spawns no workers, so the states can be read without racing a
		// worker's own steal probes.
		rt := New(Config{Workers: 4, Seed: seed, Deterministic: true})
		defer rt.Close()
		out := make([]uint64, len(rt.wlocal))
		for w := range rt.wlocal {
			out[w] = rt.wlocal[w].rng
		}
		return out
	}
	a, b, c := mk(42), mk(42), mk(43)
	for w := range a {
		if a[w] != b[w] {
			t.Fatalf("worker %d: same seed gave different steal RNG state", w)
		}
	}
	diff := false
	for w := range a {
		if a[w] != c[w] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("seeds 42 and 43 gave identical steal RNG states")
	}
}
