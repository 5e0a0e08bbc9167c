// Package taskrt is a task-based dataflow runtime system in the style of
// OmpSs/Nanos++ (§II-C of the paper): the program is decomposed into tasks
// annotated with their data inputs and outputs; the runtime builds the
// task dependence graph (TDG), moves tasks whose dependences are satisfied
// to a ready queue, and executes them on a pool of workers.
//
// The runtime is memoization-agnostic: a Memoizer hook (implemented by
// package core) is consulted when a worker pulls a task from the ready
// queue and when a task body finishes, exactly the two interception points
// of the paper's Fig. 1.
package taskrt

import (
	"fmt"
	"sync"
	"sync/atomic"

	"atm/internal/failpoint"
	"atm/internal/region"
	"atm/internal/trace"
)

// AccessMode declares how a task uses a region, mirroring the
// in/out/inout clauses of OmpSs and OpenMP 4.0 task depend annotations.
type AccessMode uint8

// Access modes.
const (
	ModeIn    AccessMode = iota // read-only data input
	ModeOut                     // write-only data output
	ModeInOut                   // read-modify-write
)

// String returns the OmpSs clause name of the mode.
func (m AccessMode) String() string {
	switch m {
	case ModeIn:
		return "in"
	case ModeOut:
		return "out"
	case ModeInOut:
		return "inout"
	default:
		return fmt.Sprintf("AccessMode(%d)", uint8(m))
	}
}

// Access pairs a region with its access mode.
type Access struct {
	Region region.Region
	Mode   AccessMode
}

// In declares a read-only access.
func In(r region.Region) Access { return Access{Region: r, Mode: ModeIn} }

// Out declares a write-only access.
func Out(r region.Region) Access { return Access{Region: r, Mode: ModeOut} }

// InOut declares a read-modify-write access.
func InOut(r region.Region) Access { return Access{Region: r, Mode: ModeInOut} }

// TaskFunc is a task body. It must be deterministic in its declared
// inputs and write only its declared outputs (§III-E: ATM requires tasks
// whose outputs are a pure function of their annotated inputs).
type TaskFunc func(t *Task)

// TypeConfig declares a task type (one pragma annotation in OmpSs terms).
type TypeConfig struct {
	// Name labels the type in statistics and reports.
	Name string
	// Run is the task body.
	Run TaskFunc
	// Memoize marks the type as suitable for ATM, the programmer
	// guidance of §III-E. Non-memoizable types bypass ATM entirely.
	Memoize bool
	// TauMax is the per-task Chebyshev error bound τmax used by dynamic
	// ATM's training phase (Table II). Zero means the 1% default.
	TauMax float64
	// LTraining is the number of correctly-approximated training tasks
	// required before entering steady state (Table II). Zero means 15,
	// the minimum that lets training reach p = 100%.
	LTraining int
}

// TaskType is a registered task type.
type TaskType struct {
	id   int
	cfg  TypeConfig
	rt   *Runtime
	memo any // what the memoizer's BindType made for the type
}

// ID returns the dense per-runtime type identifier.
func (tt *TaskType) ID() int { return tt.id }

// Name returns the configured name.
func (tt *TaskType) Name() string { return tt.cfg.Name }

// Config returns the type's configuration.
func (tt *TaskType) Config() TypeConfig { return tt.cfg }

// MemoType returns the memoizer's state for a Memoize type, made by its
// TypeBinder at registration; nil otherwise.
func (tt *TaskType) MemoType() any { return tt.memo }

// The training parameters a type gets when its TypeConfig leaves them
// zero.
const (
	DefaultTauMax    = 0.01
	DefaultLTraining = 15
)

// TauMax returns the effective τmax (default DefaultTauMax).
func (tt *TaskType) TauMax() float64 {
	if tt.cfg.TauMax <= 0 {
		return DefaultTauMax
	}
	return tt.cfg.TauMax
}

// LTraining returns the effective training length (default
// DefaultLTraining).
func (tt *TaskType) LTraining() int {
	if tt.cfg.LTraining <= 0 {
		return DefaultLTraining
	}
	return tt.cfg.LTraining
}

// Task is one node of the TDG.
type Task struct {
	id       uint64
	typ      *TaskType
	accesses []Access
	// regions holds the ModeIn + ModeInOut regions (declaration order)
	// followed by the ModeOut + ModeInOut regions; ninlen is the split
	// point. Inputs/Outputs return the two halves. The partition is
	// computed lazily by ensureRegions on first use, so non-memoized
	// tasks never pay for it on the submission path.
	regions []region.Region
	ninlen  int32

	// Dependence bookkeeping. npred carries a large "submission guard"
	// bias while the master wires the task, so a racing predecessor
	// completion can never ready it early. succ1 is the lock-free fast
	// path for the ubiquitous single-successor shape: it holds nil (no
	// successor yet), the lone successor, or succDone once the task has
	// completed. Additional successors spill to succs under mu.
	npred atomic.Int32
	succ1 atomic.Pointer[Task]
	mu    sync.Mutex
	succs []*Task
	done  bool

	// MemoScratch is opaque per-task state for the Memoizer (the hash
	// key and lookup results computed in OnReady, consumed in
	// OnFinished).
	MemoScratch any

	// slab points to the slab this task was carved from and sgen snapshots
	// the slab's recycle generation at carve time: a mismatch later means
	// a completion fence has retired the task and its memory may belong to
	// a newer task (see CompleteExternal).
	slab *taskSlab
	sgen uint32

	// Inline storage for the common small-task shape (≤2 accesses — hence
	// ≤4 regions, since an inout access lands in both halves — and ≤2
	// successors): keeps submission and the lazy partition at zero
	// steady-state heap allocations per task and lets the caller's
	// variadic access slice stay on its stack. Larger tasks spill to the
	// heap, which their execution cost dwarfs.
	accInline  [2]Access
	regInline  [4]region.Region
	succInline [2]*Task
}

// ID returns the task's creation-order identifier (Fig. 9's task id).
func (t *Task) ID() uint64 { return t.id }

// Type returns the task's type.
func (t *Task) Type() *TaskType { return t.typ }

// Accesses returns the declared accesses in declaration order.
func (t *Task) Accesses() []Access { return t.accesses }

// ensureRegions computes the input/output region partition on first use.
// It must be called only by the task's current exclusive owner — the
// master before publication, or the worker the task is scheduled on —
// which is how every caller (the Memoizer hooks, tests after Wait)
// reaches it; the ownership handoffs (queue mutexes, npred atomics, the
// IKT lock for deferred tasks) order the write for later readers.
func (t *Task) ensureRegions() {
	if t.regions != nil || len(t.accesses) == 0 {
		return
	}
	nin, nout := 0, 0
	for _, a := range t.accesses {
		if a.Mode == ModeIn || a.Mode == ModeInOut {
			nin++
		}
		if a.Mode == ModeOut || a.Mode == ModeInOut {
			nout++
		}
	}
	var backing []region.Region
	if nin+nout <= len(t.regInline) {
		backing = t.regInline[:nin+nout]
	} else {
		backing = make([]region.Region, nin+nout)
	}
	i, o := 0, nin
	for _, a := range t.accesses {
		if a.Mode == ModeIn || a.Mode == ModeInOut {
			backing[i] = a.Region
			i++
		}
		if a.Mode == ModeOut || a.Mode == ModeInOut {
			backing[o] = a.Region
			o++
		}
	}
	t.ninlen = int32(nin)
	t.regions = backing
}

// Inputs returns the data-input regions (in + inout), the bytes ATM hashes.
func (t *Task) Inputs() []region.Region {
	t.ensureRegions()
	return t.regions[:t.ninlen]
}

// Outputs returns the data-output regions (out + inout), what ATM copies.
func (t *Task) Outputs() []region.Region {
	t.ensureRegions()
	return t.regions[t.ninlen:]
}

// reset clears a recycled slab cell back to the carvable zero state. The
// cell's previous task completed before the fence that retired its slab,
// so every field is quiescent: npred is 0 (the ready condition), succ1
// holds succDone, succs was nilled and the inline successor slots cleared
// by complete(). Fields are cleared individually instead of assigning a
// zero Task so the mutex is not copied (vet copylocks).
func (t *Task) reset() {
	t.accesses = nil
	t.regions = nil
	t.ninlen = 0
	t.npred.Store(0)
	t.succ1.Store(nil)
	t.succs = nil
	t.done = false
	t.MemoScratch = nil
	t.accInline = [2]Access{}
	t.regInline = [4]region.Region{}
	t.succInline = [2]*Task{}
}

// Region returns access i's region (convenience for task bodies).
func (t *Task) Region(i int) region.Region { return t.accesses[i].Region }

// Float64s returns access i's region as a float64 slice. It panics if the
// region is not a *region.Float64 (a task-body programming error).
func (t *Task) Float64s(i int) []float64 {
	return t.accesses[i].Region.(*region.Float64).Data
}

// Float32s returns access i's region as a float32 slice.
func (t *Task) Float32s(i int) []float32 {
	return t.accesses[i].Region.(*region.Float32).Data
}

// Int32s returns access i's region as an int32 slice.
func (t *Task) Int32s(i int) []int32 {
	return t.accesses[i].Region.(*region.Int32).Data
}

// Outcome is the Memoizer's verdict on a ready task.
type Outcome uint8

// Memoizer verdicts.
const (
	// OutcomeRun: execute the task body normally.
	OutcomeRun Outcome = iota
	// OutcomeMemoized: outputs were copied from the THT; skip the body.
	OutcomeMemoized
	// OutcomeDeferred: an in-flight task with the same key will provide
	// the outputs and complete this task (IKT postponed copy). The
	// worker must neither run nor complete it.
	OutcomeDeferred
)

// Memoizer is the ATM hook. OnReady runs on the worker that pulled the
// task before the body would execute; OnFinished runs after a body
// completes (only for tasks whose OnReady returned OutcomeRun).
type Memoizer interface {
	OnReady(t *Task, worker int) Outcome
	OnFinished(t *Task, worker int)
}

// RuntimeBinder is implemented by memoizers that need to complete
// deferred tasks through the runtime (the IKT postponed-copy path).
type RuntimeBinder interface {
	BindRuntime(rt *Runtime)
}

// BatchObserver is optionally implemented by memoizers that want to see
// whole submitted batches. SubmitBatch calls OnBatchSubmitted after
// every task of the batch has been carved and its dependences fully
// wired, but before any task of the batch can be published to a worker —
// so the memoizer never observes a half-wired batch, and whatever
// per-type or per-layout state it prepares here is guaranteed to be in
// place before the first OnReady of the batch. Submit is a batch of one,
// so every submitted task is observed.
type BatchObserver interface {
	OnBatchSubmitted(tasks []*Task)
}

// TypeBinder is optionally implemented by memoizers that keep state per
// task type. RegisterType calls BindType for each Memoize type before
// returning it, and the type carries the result (TaskType.MemoType), so
// the memoizer reaches it from a task without a lookup.
type TypeBinder interface {
	BindType(tt *TaskType) any
}

// SchedPolicy selects the ready-queue discipline, mirroring the scheduler
// plugins of Nanos++ (the paper's runtime exposes breadth-first and
// depth-first schedulers; memoization behavior is policy-independent but
// reuse distances are not).
type SchedPolicy uint8

// Scheduling policies.
const (
	// PolicyFIFO is breadth-first: tasks run in submission order.
	PolicyFIFO SchedPolicy = iota
	// PolicyLIFO is depth-first: the most recently readied task runs
	// first (improves locality, shortens reuse distances).
	PolicyLIFO
)

// String returns the policy's name.
func (p SchedPolicy) String() string {
	if p == PolicyLIFO {
		return "lifo"
	}
	return "fifo"
}

// Config configures a Runtime.
type Config struct {
	// Workers is the number of worker goroutines ("cores"). Zero means 1.
	Workers int
	// Memoizer is the optional ATM hook.
	Memoizer Memoizer
	// Tracer is the optional execution tracer.
	Tracer *trace.Tracer
	// Policy selects the ready-queue discipline (default FIFO).
	Policy SchedPolicy
	// ThrottleWindow is the submission-throttle high watermark (the
	// maximum number of submitted-but-uncompleted tasks). 0 = 4096.
	ThrottleWindow int
	// Seed seeds every source of scheduling randomness. In live mode it
	// derives the per-worker steal-scan RNGs, so two runs with the same
	// seed probe victims in the same order; in deterministic mode it is
	// the one integer the entire schedule replays from. Zero is a valid
	// seed (the default stream).
	Seed uint64
	// Deterministic replaces the worker pool with a single-threaded
	// seeded executor: every scheduling decision is drawn from Seed and
	// the whole run — task order, yield interleavings, fence timing —
	// replays bit-identically from it. Everything (Submit, Wait, task
	// bodies, memoizer hooks) then runs on the master goroutine; Workers
	// only labels lanes. See det.go and docs/determinism.md.
	Deterministic bool
	// DetSched selects the deterministic executor's ready-queue
	// discipline; the zero value follows Policy. Ignored in live mode.
	DetSched DetSched
}

// Runtime is a task-dataflow runtime instance.
//
// Scheduling state is decentralized (see sched.go): each worker owns a
// deque it pushes newly-readied successors onto and steals from peers
// when empty; master-thread submissions go through a sharded injector.
// Dependence state is touched only by the master thread — reached
// through generation-checked slots embedded in the regions themselves
// (see depState) — and per-task wiring is guarded by the tasks' own
// locks, so there is no global runtime mutex on any hot path.
type Runtime struct {
	workers int
	memo    Memoizer
	tracer  *trace.Tracer
	policy  SchedPolicy

	typeMu   sync.Mutex
	nextType int

	locals []readyQ // per-worker deques
	inj    []readyQ // injector shards for master/external submissions
	injSeq atomic.Uint32

	parkMu   sync.Mutex
	parkCond *sync.Cond
	parked   atomic.Int32
	tokens   int

	// Task accounting is split so the master and the workers never write
	// the same cache line: submitted is master-only, completed is
	// worker-side, and completers check for a sleeping Wait() only when
	// the waiting flag (read-mostly, shared) says one exists.
	waitMu    sync.Mutex
	waitCond  *sync.Cond
	waiters   int // guarded by waitMu
	submitted atomic.Int64
	completed atomic.Int64
	waiting   atomic.Bool // true while waiters > 0

	// Submission throttling (Nanos++-style task creation throttling): a
	// master that outruns the workers is paused once window tasks are in
	// flight, keeping the live task graph and GC pressure bounded.
	// throttled is read-mostly on the completion path. window is set once
	// in New, before any worker or completer can read it.
	throttleMu   sync.Mutex
	throttleCond *sync.Cond
	throttled    atomic.Bool
	window       int64

	closed atomic.Bool
	depth  atomic.Int64 // ready-task count, maintained only when tracing

	// det is the deterministic executor, nil in live mode. Every hot-path
	// integration point is one predictable nil check.
	det *detExec

	// Per-worker steal-scan RNG state (see sched.go).
	wlocal []workerLocal

	// Master-thread-only state (one submitter at a time by contract; see
	// Submit).
	//
	// Dependence state: every region carries its *regState in its
	// DepSlot (region.Region.DepSlotHeader) stamped with this runtime's
	// generation — the submit path performs zero map operations.
	// slotStates is the live-slot list the Close/Reset sweeps walk.
	//
	// Task slabs: tasks are carved out of fixed-size slabs so a
	// submission storm costs one allocation per taskSlabSize tasks
	// instead of one per task. Filled slabs accumulate in liveSlabs; the
	// first submission after a completion fence (Wait, which proves
	// every carved task has completed) retires them to the bounded
	// freeSlabs list for reuse, bumping each slab's recycle generation —
	// recycling replaces the GC-assist share of slab allocation with a
	// per-cell reset.
	gen        uint64 // runtime generation stamped into claimed DepSlots
	fenceSeq   uint64 // bumped per retire; regStates lazily resync to it
	slotStates []*regState
	lastReg    region.Region // 1-entry dependence-state cache
	lastRS     *regState
	nextID     uint64
	slab       *taskSlab
	slabOff    int
	slabGen    uint32 // current slab's recycle generation (can't change while current)
	liveSlabs  []*taskSlab
	freeSlabs  []*taskSlab

	// fencePending is set by Wait (any goroutine) and consumed by
	// the master at its next submission, so all slab recycling happens on
	// the master thread no matter who fences.
	fencePending atomic.Bool

	// SubmitBatch scratch (master-only), reused across batches; Submit
	// passes its one task through oneEntry and oneTask.
	// oldPtrSlabs holds used portions of replaced pointer slabs until the
	// next fence scrubs them (they may carry still-valid result slices
	// until then, so replacement time is too early to scrub).
	batchNpred  []int32
	batchReady  []*Task
	batchObs    BatchObserver
	ptrSlab     []*Task
	ptrOff      int
	oldPtrSlabs [][]*Task
	oneEntry    [1]BatchEntry
	oneTask     [1]*Task

	wg sync.WaitGroup
}

// taskSlabSize is the number of Task structs per master-side slab.
// (Sizing note: 256-task slabs cross Go's 32 KiB large-object threshold
// and regressed the memoized path by 20%; see PERFORMANCE.md.)
const taskSlabSize = 64

// taskSlab is one master-side task slab. gen counts recycles: it is
// bumped when a completion fence retires the slab to the free list, so a
// task pointer that outlives the fence is detectable (its Task.sgen no
// longer matches). recycled marks slabs whose cells need a reset at
// carve time; fresh allocations are already zero.
type taskSlab struct {
	gen      atomic.Uint32
	recycled bool
	tasks    [taskSlabSize]Task
}

// Runtime generations. Every Runtime instance (and every Reset epoch
// within one) gets a process-unique generation to stamp into region
// DepSlots. The registry tracks the generations currently *live* — so a
// later claimant can distinguish the stamp of a live runtime (a contract
// violation: panic) from a stale one (closed runtime or pre-Reset epoch:
// safe to reclaim). Tracking live rather than retired generations keeps the
// map bounded by the number of live runtimes, not by how many have ever
// existed — a long-running service Resetting per phase stays flat. All
// of this is cold-path only: the steady state is a slot whose
// generation already matches.
var (
	genSeq   atomic.Uint64
	genMu    sync.Mutex
	liveGens = map[uint64]struct{}{}
)

func newGen() uint64 {
	g := genSeq.Add(1)
	genMu.Lock()
	liveGens[g] = struct{}{}
	genMu.Unlock()
	return g
}

func retireGen(g uint64) {
	genMu.Lock()
	delete(liveGens, g)
	genMu.Unlock()
}

func genLive(g uint64) bool {
	genMu.Lock()
	_, ok := liveGens[g]
	genMu.Unlock()
	return ok
}

// npredGuard is the submission-guard bias held in Task.npred while the
// master wires dependences; it is far larger than any real predecessor
// count, so concurrent completions can never drive npred to zero early.
const npredGuard = 1 << 30

// succDone marks a completed task in Task.succ1: once a predecessor's
// slot holds it, no further successors may register there.
var succDone = new(Task)

// defaultWindow is the submission-throttle high watermark when
// Config.ThrottleWindow is 0. The window bounds submitted-but-uncompleted
// tasks; Submit/SubmitBatch pause the master at it and resume below the
// low watermark (half). Every in-flight task is executable without
// further submissions (dependences point only backwards, and
// IKT-deferred tasks are completed by an earlier in-flight provider), so
// throttling cannot deadlock.
const defaultWindow = 4096

// DefaultBatch is the batch size of Batcher().
const DefaultBatch = 64

// regState is the per-region dependence registry entry: the last task that
// wrote the region and the readers since that write (the information OmpSs
// keeps per address range). readerInline backs the readers list so the
// common few-readers-per-write window allocates nothing; it is safe to
// reuse after every writer because the registry is master-thread-only and
// reader lists never outlive the next writer's wiring.
type regState struct {
	lastWriter   *Task
	readers      []*Task
	fenceSeq     uint64 // last fence epoch this state was used in
	readerInline [4]*Task
}

// refresh lazily drops dependence state left over from before the last
// slab-recycling fence. Every task recorded here completed before that
// fence, so the references are semantically dead — but the cells they
// point to may since have been re-carved into unrelated live tasks, and
// following them would wire false edges. One compare per region touch
// replaces the eager whole-registry sweep that PERFORMANCE.md records as
// a dead end.
func (rs *regState) refresh(fenceSeq uint64) {
	if rs.fenceSeq != fenceSeq {
		rs.lastWriter = nil
		rs.clearReaders()
		rs.fenceSeq = fenceSeq
	}
}

// clearReaders resets the reader list, nilling the populated inline slots
// so stale *Task pointers do not keep completed tasks (and their slabs)
// reachable. Slots beyond len(readers) are nil by induction (only append
// through readers writes them), so the common reader-free write-after-
// write chain pays no pointer stores at all.
func (rs *regState) clearReaders() {
	n := len(rs.readers)
	if n > len(rs.readerInline) {
		n = len(rs.readerInline)
	}
	for i := 0; i < n; i++ {
		rs.readerInline[i] = nil
	}
	rs.readers = nil
}

// New starts a runtime with cfg.Workers workers. Call Close when done —
// it is required, not advisory: an abandoned Runtime leaks its worker
// goroutines, and its region-slot generation stays registered as live,
// so any later runtime that submits a region it stamped panics.
func New(cfg Config) *Runtime {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	nshards := 1
	if cfg.Workers > 1 {
		nshards = cfg.Workers
		if nshards > 4 {
			nshards = 4
		}
	}
	rt := &Runtime{
		workers: cfg.Workers,
		memo:    cfg.Memoizer,
		tracer:  cfg.Tracer,
		policy:  cfg.Policy,
		locals:  make([]readyQ, cfg.Workers),
		inj:     make([]readyQ, nshards),
		gen:     newGen(),
		slab:    &taskSlab{},
	}
	rt.parkCond = sync.NewCond(&rt.parkMu)
	rt.waitCond = sync.NewCond(&rt.waitMu)
	rt.throttleCond = sync.NewCond(&rt.throttleMu)
	rt.window = defaultWindow
	if cfg.ThrottleWindow > 0 {
		rt.window = int64(cfg.ThrottleWindow)
	}
	rt.wlocal = make([]workerLocal, cfg.Workers)
	seed := cfg.Seed
	for w := range rt.wlocal {
		// Distinct per-worker seeds for the steal-start xorshift, expanded
		// from Config.Seed so same-seed live runs probe victims in the
		// same per-scan order (xorshift needs nonzero state).
		v := splitmix64(&seed)
		if v == 0 {
			v = 0x2545f4914f6cdd1d
		}
		rt.wlocal[w].rng = v
	}
	if b, ok := cfg.Memoizer.(RuntimeBinder); ok {
		b.BindRuntime(rt)
	}
	if bo, ok := cfg.Memoizer.(BatchObserver); ok {
		rt.batchObs = bo
	}
	if cfg.Deterministic {
		// No worker pool: the seeded executor runs everything on the
		// master goroutine, pulled by Wait/throttle/yield points.
		rt.det = newDetExec(rt, cfg.Seed, cfg.DetSched)
		return rt
	}
	rt.wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go rt.worker(w)
	}
	return rt
}

// Workers returns the worker count.
func (rt *Runtime) Workers() int { return rt.workers }

// Submitted returns the number of tasks submitted so far (exactly-once
// accounting; schedfuzz checks it against Completed after a barrier).
func (rt *Runtime) Submitted() int64 { return rt.submitted.Load() }

// Completed returns the number of tasks completed so far.
func (rt *Runtime) Completed() int64 { return rt.completed.Load() }

// Deterministic reports whether the runtime runs the deterministic
// executor (Config.Deterministic).
func (rt *Runtime) Deterministic() bool { return rt.det != nil }

// Tracer returns the runtime's tracer (possibly nil).
func (rt *Runtime) Tracer() *trace.Tracer { return rt.tracer }

// RegisterType registers a task type and returns it. A Memoize type is
// bound to the memoizer first when it is a TypeBinder.
func (rt *Runtime) RegisterType(cfg TypeConfig) *TaskType {
	rt.typeMu.Lock()
	defer rt.typeMu.Unlock()
	tt := &TaskType{id: rt.nextType, cfg: cfg, rt: rt}
	rt.nextType++
	if b, ok := rt.memo.(TypeBinder); ok && cfg.Memoize {
		tt.memo = b.BindType(tt)
	}
	return tt
}

// throttle pauses the master while the in-flight task count is at or
// above the high watermark, resuming below the low watermark (half).
func (rt *Runtime) throttle() {
	if rt.submitted.Load()-rt.completed.Load() < rt.window {
		return
	}
	if rt.det != nil {
		rt.det.drainBacklog()
		return
	}
	rt.throttleMu.Lock()
	rt.throttled.Store(true)
	for rt.submitted.Load()-rt.completed.Load() >= rt.window/2 {
		rt.throttleCond.Wait()
	}
	rt.throttled.Store(false)
	rt.throttleMu.Unlock()
}

// carveRaw allocates the next task from the master-side slab and stamps
// its type and id; the caller fills the accesses (the input/output
// partition is computed lazily by ensureRegions).
func (rt *Runtime) carveRaw(tt *TaskType) *Task {
	if rt.slabOff == taskSlabSize {
		// Track the filled slab for recycling at the next fence — but only
		// up to one throttle window's worth. Tracking pins the slab until a
		// fence, so a fence-light submission storm (millions of tasks, one
		// final Wait) must shed the excess to the GC as completion frees
		// them, exactly as before recycling existed; otherwise the tracked
		// list itself would grow the live heap without bound.
		if len(rt.liveSlabs) < rt.slabTrackLimit() {
			rt.liveSlabs = append(rt.liveSlabs, rt.slab)
		}
		rt.slab = rt.takeSlab()
		rt.slabGen = rt.slab.gen.Load()
		rt.slabOff = 0
	}
	t := &rt.slab.tasks[rt.slabOff]
	rt.slabOff++
	if rt.slab.recycled {
		t.reset()
	}
	t.slab = rt.slab
	t.sgen = rt.slabGen
	t.typ = tt
	t.id = rt.nextID
	rt.nextID++
	return t
}

// takeSlab pops a recycled slab from the free list, or allocates a fresh
// one.
func (rt *Runtime) takeSlab() *taskSlab {
	if n := len(rt.freeSlabs); n > 0 {
		s := rt.freeSlabs[n-1]
		rt.freeSlabs[n-1] = nil
		rt.freeSlabs = rt.freeSlabs[:n-1]
		return s
	}
	return &taskSlab{}
}

// retireSlabs moves every filled slab to the free list for reuse. Called
// by the master at its first submission after a completion fence
// (fencePending): at the fence every carved task had completed, and
// between the fence and this call the master — the only carver — created
// none, so all filled slabs hold only completed tasks. Each retired
// slab's recycle generation is bumped (stale Task pointers become
// detectable) and the fence epoch advances so regStates lazily drop
// dependence references into recycled cells. The free list is bounded to
// one throttle window's worth of slabs; excess slabs fall to the GC.
func (rt *Runtime) retireSlabs() {
	rt.lastReg, rt.lastRS = nil, nil
	if len(rt.liveSlabs) == 0 {
		return
	}
	rt.fenceSeq++
	// All outstanding SubmitBatch result pointers die at this fence;
	// scrub the pointer slabs — current and any replaced since the last
	// fence — so stale entries cannot pin retired tasks' slabs (callers'
	// slices share this backing — their contents become nil rather than
	// silently aliasing re-carved cells). ptrOff is NOT reset: long-lived
	// Batcher buffers keep aliasing their original segments, so reusing
	// the storage would hand one segment to two owners. The slab stays
	// monotonic and reallocates when exhausted.
	for i := range rt.ptrSlab[:rt.ptrOff] {
		rt.ptrSlab[i] = nil
	}
	for i, ps := range rt.oldPtrSlabs {
		for j := range ps {
			ps[j] = nil
		}
		rt.oldPtrSlabs[i] = nil
	}
	rt.oldPtrSlabs = rt.oldPtrSlabs[:0]
	limit := rt.slabTrackLimit()
	for i, s := range rt.liveSlabs {
		rt.liveSlabs[i] = nil
		// Bump the recycle generation of every retired slab — also the
		// ones dropped to the GC past the free-list bound — so a stale
		// CompleteExternal straggler is detectable either way.
		s.gen.Add(1)
		if len(rt.freeSlabs) < limit {
			s.recycled = true
			rt.freeSlabs = append(rt.freeSlabs, s)
		}
	}
	rt.liveSlabs = rt.liveSlabs[:0]
}

// slabTrackLimit bounds both the tracked-filled-slab list and the free
// list to one submission-throttle window's worth of slabs: the window is
// the most tasks that can be in flight, so more slabs than this cannot
// all hold live tasks anyway.
func (rt *Runtime) slabTrackLimit() int {
	return int(rt.window)/taskSlabSize + 2
}

// consumeFence runs the deferred fence work (slab retirement) if a fence
// was crossed since the last submission. Master-only; called on entry to
// Submit and SubmitBatch, before any carving. The quiescence re-check
// makes stray fences harmless: Wait may be called from any goroutine,
// and a non-master waiter can observe completed == submitted in the
// window after the master has carved a batch but before the batch is
// counted in submitted — raising the flag while those tasks are still
// running. Retiring then would recycle slabs holding live tasks, so the
// flag only takes effect when the counters prove every carved task has
// completed (submitted is stable here: the master is the only writer,
// and it is the caller). A skipped fence costs nothing but the missed
// recycle; the next true barrier re-raises it.
func (rt *Runtime) consumeFence() {
	if !rt.fencePending.Load() {
		return
	}
	rt.fencePending.Store(false)
	if rt.completed.Load() != rt.submitted.Load() {
		return
	}
	if rt.det != nil && rt.det.delayFence() {
		// Seeded fence-timing exploration: keep the fence pending so slab
		// retirement lands at a later submission — the late-recycle
		// schedules that make stale task pointers observable.
		rt.fencePending.Store(true)
		return
	}
	rt.retireSlabs()
}

// carve creates a task copying the caller's access slice (inline for the
// common ≤2-access shape).
func (rt *Runtime) carve(tt *TaskType, accesses []Access) *Task {
	t := rt.carveRaw(tt)
	if len(accesses) <= len(t.accInline) {
		t.accesses = t.accInline[:copy(t.accInline[:], accesses)]
	} else {
		t.accesses = make([]Access, len(accesses))
		copy(t.accesses, accesses)
	}
	return t
}

// carveOwned is carve for an access slice the caller owns and will not
// reuse (always a spilled BatchEntry list, >2 accesses): the task adopts
// it without copying.
func (rt *Runtime) carveOwned(tt *TaskType, accesses []Access) *Task {
	t := rt.carveRaw(tt)
	t.accesses = accesses
	return t
}

// wire registers t's dependences against the registry and returns the
// number of distinct predecessors found. Tasks with id >= batchStart are
// unpublished members of the batch currently being submitted: the master
// owns both endpoints of such an edge, so it is recorded with plain
// appends — no CAS, no lock, no npred guard. Edges to older (published,
// possibly executing) tasks use the lock-free registration path; before
// the first such edge the submission guard is installed in t.npred, so a
// racing predecessor completion can never drive it to zero early.
// SubmitBatch's pass 3 publishes the result.
func (rt *Runtime) wire(t *Task, batchStart uint64) int32 {
	// Predecessor dedup: a linear scan over a small inline buffer for the
	// ubiquitous few-predecessor shape, spilling to a map once the count
	// would make the scan quadratic (the kmeans fan-in task reads
	// hundreds of partials, all with distinct last-writers).
	const seenSpill = 32
	var seenBuf [8]*Task
	seen := seenBuf[:0]
	var seenMap map[*Task]struct{}
	npred := int32(0)
	guarded := false
	record := func(p *Task) {
		if seenMap != nil {
			seenMap[p] = struct{}{}
			return
		}
		seen = append(seen, p)
		if len(seen) >= seenSpill {
			seenMap = make(map[*Task]struct{}, 2*seenSpill)
			for _, q := range seen {
				seenMap[q] = struct{}{}
			}
		}
	}
	addPred := func(p *Task) {
		if p == nil || p == t {
			return
		}
		if seenMap != nil {
			if _, dup := seenMap[p]; dup {
				return
			}
		} else {
			for _, q := range seen {
				if q == p {
					return
				}
			}
		}
		if p.id >= batchStart {
			// Intra-batch edge: p is unpublished, cannot run or complete
			// until this batch is published, and only the master touches
			// it — plain memory suffices.
			if p.succs == nil {
				p.succs = p.succInline[:0]
			}
			p.succs = append(p.succs, t)
			record(p)
			npred++
			return
		}
		if rt.det != nil {
			// Yield point: p may complete right here, before registration
			// even looks at it (the completed-predecessor fast path).
			rt.det.maybeYield()
		}
		cur := p.succ1.Load()
		if cur == succDone {
			return // p already completed
		}
		// The guard keeps racing predecessor completions from readying
		// the task before its wiring is finished; it is installed lazily
		// so tasks without cross-batch predecessors pay no npred atomics
		// at all.
		if !guarded {
			t.npred.Store(npredGuard)
			guarded = true
		}
		if rt.det != nil {
			// Yield point: p may complete between the load and the CAS —
			// the CAS then fails against succDone and the lock path must
			// observe p.done and drop the edge.
			rt.det.maybeYield()
		}
		if cur == nil && p.succ1.CompareAndSwap(nil, t) {
			record(p)
			npred++
			return
		}
		// Slot taken by another successor: spill under the lock.
		p.mu.Lock()
		if p.done {
			p.mu.Unlock()
			return
		}
		if p.succs == nil {
			p.succs = p.succInline[:0]
		}
		p.succs = append(p.succs, t)
		p.mu.Unlock()
		record(p)
		npred++
	}
	for _, a := range t.accesses {
		rs := rt.lastRS
		if a.Region != rt.lastReg {
			rs = rt.depState(a.Region)
			rt.lastReg, rt.lastRS = a.Region, rs
		}
		// Opportunistically drop a completed last writer (succ1 holds the
		// succDone sentinel from completion onwards): a stale *Task in
		// the registry pins the writer's whole allocation slab.
		if lw := rs.lastWriter; lw != nil && lw.succ1.Load() == succDone {
			rs.lastWriter = nil
		}
		switch a.Mode {
		case ModeIn:
			addPred(rs.lastWriter) // RAW
			if rs.readers == nil {
				rs.readers = rs.readerInline[:0]
			}
			rs.readers = append(rs.readers, t)
		case ModeOut, ModeInOut:
			addPred(rs.lastWriter) // WAW (and RAW for inout)
			for _, r := range rs.readers {
				addPred(r) // WAR
			}
			rs.lastWriter = t
			rs.clearReaders()
			if a.Mode == ModeInOut {
				rs.readers = rs.readerInline[:0]
				rs.readers = append(rs.readers, t)
			}
		}
	}
	return npred
}

// depState resolves the dependence state for r. The steady state — a
// DepSlot already stamped with this runtime's generation — is one
// pointer load and two compares, with zero map operations; first touch
// and reclaiming a slot left by a closed runtime or a pre-Reset epoch
// are the cold path.
func (rt *Runtime) depState(r region.Region) *regState {
	s := r.DepSlotHeader()
	if s.DepGen() == rt.gen {
		rs := s.DepState().(*regState)
		rs.refresh(rt.fenceSeq)
		return rs
	}
	return rt.claimSlot(s)
}

// claimSlot stamps s with this runtime's generation. A slot whose
// generation is retired (closed runtime, pre-Reset epoch) is reclaimed:
// its old state belongs to a dependence history that no longer exists.
// A slot held by another live runtime is a contract violation, like
// Submit after Close: two runtimes would each track half of the
// region's dependences.
func (rt *Runtime) claimSlot(s *region.DepSlot) *regState {
	if g := s.DepGen(); g != 0 && genLive(g) {
		panic(fmt.Sprintf(
			"taskrt: region submitted to runtime generation %d while live runtime generation %d holds its dependence slot; Close the other runtime first",
			rt.gen, g))
	}
	rs := &regState{fenceSeq: rt.fenceSeq}
	s.SetDepState(rt.gen, rs)
	rt.slotStates = append(rt.slotStates, rs)
	return rs
}

// Submit creates a task of type tt with the given accesses, wires its
// dependences against previously submitted tasks, and schedules it when
// ready. It is SubmitBatch with a batch of one: the same yield points in
// deterministic mode, and a BatchObserver sees the one-task batch before
// the task can run. The runtime takes one submitter (the "master
// thread") at a time: calls to Submit, SubmitBatch and Reset must not
// overlap, and each must happen after the previous one returned — from
// one goroutine, or from goroutines taking turns under a mutex, which
// orders them. A submitter's Wait belongs to its turn, since task
// pointers stay valid only until the next submission after a fence.
// Task bodies must not submit. For regular loop nests, SubmitBatch (or a
// Batcher) amortizes the per-task submission cost.
func (rt *Runtime) Submit(tt *TaskType, accesses ...Access) *Task {
	rt.oneEntry[0].fill(tt, accesses)
	t := rt.submitBatch(rt.oneEntry[:], rt.oneTask[:0])[0]
	rt.oneTask[0] = nil // do not pin the task's slab past its fence
	return t
}

// worker is the per-worker loop: pull a ready task, consult the memoizer,
// execute or skip, complete. A completion that readies a single successor
// hands it straight back to the same worker (the inner loop), so serial
// task chains run without touching any queue.
func (rt *Runtime) worker(w int) {
	defer rt.wg.Done()
	for {
		if rt.tracer != nil {
			rt.tracer.SetState(w, trace.StateIdle)
		}
		t := rt.next(w)
		if t == nil {
			return
		}
		for t != nil {
			t = rt.step(t, w)
		}
	}
}

// step runs one scheduled task and returns the direct-handoff successor,
// if any.
func (rt *Runtime) step(t *Task, w int) *Task {
	if rt.memo != nil && t.typ.cfg.Memoize {
		switch rt.memo.OnReady(t, w) {
		case OutcomeMemoized:
			return rt.complete(t, w)
		case OutcomeDeferred:
			return nil // the in-flight provider completes it
		}
		if rt.tracer != nil {
			rt.tracer.SetState(w, trace.StateExec)
		}
		t.typ.cfg.Run(t)
		if rt.det != nil {
			// Yield point between the body and OnFinished: a same-key task
			// pulled here finds the result not yet published and defers on
			// the IKT — the window OutcomeDeferred exists for, unreachable
			// in a strictly sequential replay without this yield.
			rt.det.maybeYield()
		}
		rt.memo.OnFinished(t, w)
	} else {
		if rt.tracer != nil {
			rt.tracer.SetState(w, trace.StateExec)
		}
		t.typ.cfg.Run(t)
	}
	return rt.complete(t, w)
}

// complete marks t done and releases its successors. When called from a
// worker (w >= 0) the first readied successor is returned for direct
// handoff — the worker runs it next without a queue round-trip — and any
// further ones go to the worker's own deque. External completions
// (w == -1) route everything through the injector. A completion that
// readies k tasks issues
// a single wake of min(k, parked) instead of k independent wakes, so a
// wide fan-out no longer stampedes the park lock.
func (rt *Runtime) complete(t *Task, w int) *Task {
	var keep *Task
	nq := 0
	// Deterministic mode disables direct handoff: a handed-off successor
	// would bypass the seeded pick, hardwiring chain order.
	handoff := w >= 0 && rt.det == nil
	release := func(s *Task) {
		if s.npred.Add(-1) == 0 {
			if handoff && keep == nil {
				keep = s
			} else {
				rt.enqueue(s, w)
				nq++
			}
		}
	}
	// Seal the fast-path successor slot first so no new registrations can
	// race with collecting the spill list.
	if s1 := t.succ1.Swap(succDone); s1 != nil && s1 != succDone {
		release(s1)
	}
	t.mu.Lock()
	t.done = true
	succs := t.succs
	t.succs = nil
	t.mu.Unlock()
	for i, s := range succs {
		// Clear the slot: succs usually aliases t.succInline, and a stale
		// *Task there would keep the successor's whole slab reachable.
		succs[i] = nil
		release(s)
	}
	if nq > 0 {
		if keep == nil && w >= 0 {
			// No direct handoff: the completing worker itself returns to
			// the queues next and consumes one of the readied tasks.
			nq--
		}
		rt.wake(nq)
	}
	done := rt.completed.Add(1)
	if rt.waiting.Load() && done == rt.submitted.Load() {
		rt.waitMu.Lock()
		rt.waitCond.Broadcast()
		rt.waitMu.Unlock()
	}
	if rt.throttled.Load() && rt.submitted.Load()-done <= rt.window/2 {
		rt.throttleMu.Lock()
		rt.throttleCond.Signal()
		rt.throttleMu.Unlock()
	}
	return keep
}

// CompleteExternal completes a task that was deferred by the memoizer
// (OutcomeDeferred) after its outputs have been provided. It must be
// called exactly once per deferred task, and before the next completion
// fence can pass (Wait cannot return while the deferred task is
// uncompleted, so any correctly-used provider satisfies this). A call
// that arrives after a fence retired the task's slab is a contract
// violation; the slab generation stamp catches it in most cases —
// retired slabs bump their generation — rather than silently corrupting
// a recycled task. The check is best-effort, not a guarantee: a cell
// already re-carved carries the new stamp, and slabs shed straight to
// the GC by a fence-light submission storm are never retired at all.
func (rt *Runtime) CompleteExternal(t *Task) {
	if err := failpoint.Inject(FailpointCompleteExternal); err != nil {
		// An armed failpoint drops the completion: the deterministic
		// executor's stall detector then reports the incomplete task count
		// and the seed, turning "provider forgot a waiter" into a
		// replayable failure instead of a hang.
		return
	}
	if t.slab != nil {
		if g := t.slab.gen.Load(); g != t.sgen {
			panic(fmt.Sprintf(
				"taskrt: CompleteExternal on a task already retired by a completion fence (slab recycle generation now %d, task carved at generation %d)",
				g, t.sgen))
		}
	}
	rt.complete(t, -1)
}

// FailpointCompleteExternal drops a CompleteExternal call when armed (see
// internal/failpoint): the injected fault for lost-completion schedules.
const FailpointCompleteExternal = "taskrt.CompleteExternal"

// Wait blocks until every submitted task has completed (taskwait/barrier)
// and marks the completion fence: at the master's next submission, every
// filled task slab is recycled (see retireSlabs). Task pointers obtained
// from Submit/SubmitBatch remain valid after Wait — until that next
// submission.
func (rt *Runtime) Wait() {
	if rt.det != nil {
		// Deterministic mode: there is no worker pool to wait for — the
		// master drains the ready queue itself (master goroutine only).
		rt.det.drain()
		rt.fencePending.Store(true)
		return
	}
	if rt.completed.Load() == rt.submitted.Load() {
		rt.fencePending.Store(true)
		return
	}
	rt.waitMu.Lock()
	rt.waiters++
	rt.waiting.Store(true)
	for rt.completed.Load() != rt.submitted.Load() {
		rt.waitCond.Wait()
	}
	rt.waiters--
	if rt.waiters == 0 {
		rt.waiting.Store(false)
	}
	rt.waitMu.Unlock()
	rt.fencePending.Store(true)
}

// Reset discards all dependence-tracking state after a barrier: the
// runtime detaches from every region it has seen, and subsequently
// submitted tasks start a fresh dependence history (the OmpSs analogue of
// dropping all address-range tracking at a taskwait). Claimed region
// slots are invalidated wholesale by retiring the runtime's generation
// and assigning a new one — no per-region unstamping pass. Like Submit,
// Reset must be called by the one submitter.
func (rt *Runtime) Reset() {
	rt.Wait()
	retireGen(rt.gen)
	rt.gen = newGen()
	rt.sweepDepState()
}

// sweepDepState releases every task reference the dependence registry
// holds, walking the live-slot list. Master-only; used by Reset and
// Close.
func (rt *Runtime) sweepDepState() {
	for i, rs := range rt.slotStates {
		rs.lastWriter = nil
		rs.clearReaders()
		rt.slotStates[i] = nil
	}
	rt.slotStates = rt.slotStates[:0]
	rt.lastReg, rt.lastRS = nil, nil
}

// Close waits for outstanding tasks, then stops the workers. The runtime
// must not be used afterwards.
func (rt *Runtime) Close() {
	rt.Wait()
	rt.closed.Store(true)
	rt.parkMu.Lock()
	rt.parkCond.Broadcast()
	rt.parkMu.Unlock()
	rt.wg.Wait()
	// Every task is complete; release the dependence registry's task
	// references so user-held regions whose slots reach regStates cannot
	// pin task memory, and drop the slab lists themselves.
	rt.sweepDepState()
	retireGen(rt.gen)
	rt.slab = nil
	rt.liveSlabs = nil
	rt.freeSlabs = nil
	rt.ptrSlab = nil
	rt.ptrOff = 0
	rt.oldPtrSlabs = nil
	rt.tracer.Flush()
}
