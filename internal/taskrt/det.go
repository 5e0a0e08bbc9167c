package taskrt

import (
	"fmt"
	"strings"
)

// Deterministic execution mode (Config.Deterministic): a single-threaded
// executor that owns every ready queue and replays any schedule from one
// integer. The live runtime's nondeterminism has four sources — which
// ready task a worker pulls, which victim a thief probes, which parked
// worker a wake token reaches, and where the master's submission stream
// interleaves with worker completions. Under the deterministic executor
// the first is drawn from a seeded PRNG (the sched discipline below) and
// the other three collapse into it: there is one goroutine, so "which
// worker" is just a seeded lane label, and the master/worker interleaving
// is recreated by seeded yield points — at dependence registration, batch
// finalize phases, and between a task body and its memoizer hook — where
// the executor may run a few ready tasks in the middle of a master-side
// operation, exactly the windows a preempting worker would hit.
//
// The mode exists for schedule fuzzing (internal/schedfuzz): run a
// scenario under N seeds, and any invariant violation replays bit-
// identically from the failing seed. The live multi-worker path is
// untouched when the mode is off — every integration point is one
// predictable `rt.det == nil` branch.
//
// Contract: with Deterministic set, *everything* runs on the master
// goroutine — Submit, Wait, task bodies, memoizer hooks. Wait must not be
// called from another goroutine (it would spin on a drain loop that only
// the master can advance), and background goroutines that call
// CompleteExternal are outside the model.

// DetSched selects the deterministic executor's ready-queue discipline.
type DetSched uint8

// Deterministic scheduling disciplines.
const (
	// DetSchedPolicy follows Config.Policy: PolicyFIFO picks like
	// DetSchedFIFO, PolicyLIFO like DetSchedLIFO. The zero value, so a
	// Config that only sets Deterministic gets the schedule closest to
	// its live counterpart.
	DetSchedPolicy DetSched = iota
	// DetSchedFIFO always runs the oldest ready task (breadth-first).
	DetSchedFIFO
	// DetSchedLIFO always runs the newest ready task (depth-first).
	DetSchedLIFO
	// DetSchedRandom picks uniformly among ready tasks and shuffles each
	// published batch block.
	DetSchedRandom
	// DetSchedAdversarial mixes newest-first, oldest-first and uniform
	// picks and doubles the yield-point firing rate — biased toward the
	// starvation/preemption extremes where reordering bugs live.
	DetSchedAdversarial
)

// String returns the discipline's flag spelling.
func (s DetSched) String() string {
	switch s {
	case DetSchedFIFO:
		return "fifo"
	case DetSchedLIFO:
		return "lifo"
	case DetSchedRandom:
		return "random"
	case DetSchedAdversarial:
		return "adversarial"
	default:
		return "policy"
	}
}

// ParseDetSched parses a discipline name as spelled by String (the
// atmbench -sched flag); "" and "policy" mean DetSchedPolicy.
func ParseDetSched(name string) (DetSched, error) {
	switch strings.ToLower(name) {
	case "", "policy":
		return DetSchedPolicy, nil
	case "fifo":
		return DetSchedFIFO, nil
	case "lifo":
		return DetSchedLIFO, nil
	case "random":
		return DetSchedRandom, nil
	case "adversarial":
		return DetSchedAdversarial, nil
	default:
		return 0, fmt.Errorf("taskrt: unknown deterministic sched %q (want fifo|lifo|random|adversarial)", name)
	}
}

// splitmix64 advances *x and returns the next value of its splitmix64
// stream — the seed expander behind every deterministic-mode decision and
// the per-worker steal-RNG seeds of live mode.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// maxYieldDepth caps nested yield-point execution: a yielded-to task body
// may itself hit a yield point, and unbounded nesting would turn a long
// ready queue into a deep call stack.
const maxYieldDepth = 32

// detExec is the deterministic executor: the single ready queue and the
// one PRNG stream every scheduling decision is drawn from.
type detExec struct {
	rt       *Runtime
	seed     uint64   // as configured, for failure reports
	s        uint64   // splitmix64 state
	sched    DetSched // resolved: never DetSchedPolicy
	yieldNum uint64   // yield-point firing threshold out of 256
	depth    int      // current yield nesting depth
	ready    []*Task  // the one ready queue, oldest first

	// Lane occupancy. A yielded-to task must run on a lane no in-flight
	// task occupies: memoizers carry per-worker scratch from OnReady to
	// OnFinished under the contract that no other task of that worker
	// runs in between — which also matches reality, where a worker
	// cannot be preempted mid-task and concurrency comes only from the
	// other workers. With every lane busy, yield points are no-ops (a
	// single-worker runtime legitimately has no interleavings).
	busyLane []bool
	nbusy    int
	laneBuf  []int // runOne scratch for the free-lane list
}

func newDetExec(rt *Runtime, seed uint64, sched DetSched) *detExec {
	if sched == DetSchedPolicy {
		if rt.policy == PolicyLIFO {
			sched = DetSchedLIFO
		} else {
			sched = DetSchedFIFO
		}
	}
	d := &detExec{rt: rt, seed: seed, s: seed, sched: sched, yieldNum: 32}
	if sched == DetSchedAdversarial {
		d.yieldNum = 128
	}
	d.busyLane = make([]bool, rt.workers)
	return d
}

// next draws the next PRNG value.
func (d *detExec) next() uint64 { return splitmix64(&d.s) }

// intn draws a value in [0, n).
func (d *detExec) intn(n int) int { return int(d.next() % uint64(n)) }

// add enqueues one readied task (the deterministic counterpart of every
// live queue push).
func (d *detExec) add(t *Task) { d.ready = append(d.ready, t) }

// addBlock enqueues a published batch block. Randomized disciplines
// shuffle the block (seeded Fisher–Yates) so batch publication order is a
// scheduling decision like any other; ts is the caller's scratch and is
// not retained.
func (d *detExec) addBlock(ts []*Task) {
	base := len(d.ready)
	d.ready = append(d.ready, ts...)
	if d.sched == DetSchedRandom || d.sched == DetSchedAdversarial {
		for i := len(d.ready) - 1; i > base; i-- {
			j := base + d.intn(i-base+1)
			d.ready[i], d.ready[j] = d.ready[j], d.ready[i]
		}
	}
}

// chooseIdx draws the discipline's choice among m ready candidates.
func (d *detExec) chooseIdx(m int) int {
	switch d.sched {
	case DetSchedLIFO:
		return m - 1
	case DetSchedRandom:
		return d.intn(m)
	case DetSchedAdversarial:
		switch r := d.next() % 8; {
		case r < 4:
			return m - 1
		case r < 6:
			return 0
		default:
			return d.intn(m)
		}
	default: // DetSchedFIFO
		return 0
	}
}

// pick removes and returns the task the discipline selects, or nil when
// nothing is ready.
func (d *detExec) pick() *Task {
	n := len(d.ready)
	if n == 0 {
		return nil
	}
	i := d.chooseIdx(n)
	t := d.ready[i]
	copy(d.ready[i:], d.ready[i+1:])
	d.ready[n-1] = nil
	d.ready = d.ready[:n-1]
	return t
}

// runOne executes one picked task to completion on a seeded free lane
// (direct handoff is disabled in deterministic mode, so step chains do
// not bypass pick). Returns false when nothing is ready or every lane is
// occupied by an in-flight task further up the yield stack.
func (d *detExec) runOne() bool {
	if d.nbusy == len(d.busyLane) {
		return false
	}
	t := d.pick()
	if t == nil {
		return false
	}
	rt := d.rt
	if rt.tracer != nil {
		rt.tracer.RQDepth(int(rt.depth.Add(-1)))
	}
	// The lane a live scheduler would decide by work stealing; it feeds
	// the memoizer's per-worker scratch and the tracer, so it must be a
	// lane no in-flight task holds (see busyLane).
	free := d.laneBuf[:0]
	for i, b := range d.busyLane {
		if !b {
			free = append(free, i)
		}
	}
	w := free[0]
	if len(free) > 1 {
		w = free[d.intn(len(free))]
	}
	d.laneBuf = free[:0]
	d.busyLane[w] = true
	d.nbusy++
	for t != nil {
		t = rt.step(t, w)
	}
	d.busyLane[w] = false
	d.nbusy--
	return true
}

// maybeYield is a seeded yield point: with probability yieldNum/256 the
// executor runs a few ready tasks here, in the middle of whatever master-
// side operation the caller is performing — the deterministic stand-in
// for a live worker preempting the master at this boundary.
func (d *detExec) maybeYield() {
	if d.depth >= maxYieldDepth || len(d.ready) == 0 {
		return
	}
	if d.next()&0xff >= d.yieldNum {
		return
	}
	k := 1 + int(d.next()&3)
	d.depth++
	for i := 0; i < k; i++ {
		if !d.runOne() {
			break
		}
	}
	d.depth--
}

// delayFence decides (seeded) whether a pending completion fence is
// consumed at this submission or deferred to a later one, exploring both
// early and late slab-recycle timings.
func (d *detExec) delayFence() bool { return d.next()&1 == 1 }

// stall reports a drain that cannot make progress: tasks are incomplete
// but nothing is ready — a lost wakeup, a dependence cycle, or a deferred
// task whose provider never called CompleteExternal (including one
// dropped by an armed failpoint). The message carries the seed so the
// schedule replays.
func (d *detExec) stall() {
	rt := d.rt
	panic(fmt.Sprintf(
		"taskrt: deterministic executor stalled: %d of %d tasks incomplete with no ready task (lost wakeup, dependence cycle, or missing CompleteExternal); seed=%d sched=%s",
		rt.submitted.Load()-rt.completed.Load(), rt.submitted.Load(), d.seed, d.sched))
}

// drain runs ready tasks until every submitted task has completed (the
// deterministic Wait).
func (d *detExec) drain() {
	rt := d.rt
	for rt.completed.Load() != rt.submitted.Load() {
		if !d.runOne() {
			d.stall()
		}
	}
}

// drainBacklog runs ready tasks until the in-flight count falls below the
// throttle low watermark (the deterministic throttle: there is no worker
// pool to wait for, so the master works the backlog down itself).
func (d *detExec) drainBacklog() {
	rt := d.rt
	for rt.submitted.Load()-rt.completed.Load() >= rt.window/2 {
		if !d.runOne() {
			d.stall()
		}
	}
}
