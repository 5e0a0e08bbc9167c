// Package core implements Approximate Task Memoization (ATM), the paper's
// primary contribution (§III): a runtime-system mechanism that predicts
// the outputs of ready tasks from the history of previous executions of
// the same task type.
//
// It plugs into the task runtime (package taskrt) through the Memoizer
// hook. When a worker pulls a ready task, core computes an 8-byte Jenkins
// hash key over a sampled subset of the task's input bytes and probes the
// Task History Table (THT); on a hit the stored outputs are copied into
// the task's outputs and the body is skipped. On a miss, the In-flight Key
// Table (IKT) catches reuse at short distances: if an identical task is
// currently executing, this one is deferred and receives the outputs when
// the in-flight provider finishes.
//
// The steady-state hit path (hash + THT probe + output copy) is
// allocation-free and lock-free: each worker owns a reusable hasher and
// scratch, type state and shuffle plans are read through atomic
// pointers, statistics go to per-worker padded shards, and overhead
// timing is sampled rather than measured on every task.
//
// Three operating modes are provided:
//
//   - ModeStatic — static ATM: p = 100% of input bytes, exact memoization,
//     0% accuracy loss.
//   - ModeDynamic — dynamic ATM: a per-task-type training phase starts at
//     p = 2^-15·100% and doubles p every time an approximated task's
//     Chebyshev error τ reaches τmax, until L_training tasks in a row are
//     approximated correctly; then a steady phase memoizes at the chosen p
//     without executing the tasks.
//   - ModeFixed — a constant p level with no training, used by the
//     Oracle(100%)/Oracle(95%) sweeps and the Fig. 5 sensitivity study.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"atm/internal/hashx"
	"atm/internal/metrics"
	"atm/internal/region"
	"atm/internal/sampling"
	"atm/internal/taskrt"
	"atm/internal/trace"
)

// Mode selects the ATM operating mode.
type Mode uint8

// Operating modes.
const (
	ModeStatic  Mode = iota // p = 100%, exact memoization
	ModeDynamic             // training phase chooses p automatically
	ModeFixed               // constant p level (oracle / sensitivity runs)
)

// String returns the mode's name.
func (m Mode) String() string {
	switch m {
	case ModeStatic:
		return "static"
	case ModeDynamic:
		return "dynamic"
	case ModeFixed:
		return "fixed-p"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Config configures an ATM instance.
type Config struct {
	// Mode selects static, dynamic, or fixed-p operation.
	Mode Mode
	// FixedLevel is the p level for ModeFixed: level L means
	// p = 2^(L-15), so 15 is 100%. Ignored in other modes.
	FixedLevel int
	// NBits sets the THT to 2^NBits buckets. Zero means 8, the paper's
	// sizing (§IV-B: "N=8 provides a 46% performance improvement with
	// respect to N=0").
	NBits int
	// M is the THT bucket capacity. Zero means 128, the paper's value
	// (sized for Kmeans; most applications saturate at 16).
	M int
	// DisableIKT turns off the In-flight Key Table, leaving only the
	// THT (the "THT" bars of Fig. 3).
	DisableIKT bool
	// DisableTypeAware turns off type-aware MSB-first input selection
	// (§III-C) and uses the plain uniform shuffle.
	DisableTypeAware bool
	// Seed perturbs the shuffle plans and hash keys; runs with equal
	// seeds are reproducible.
	Seed uint64
	// THTBudgetBytes caps the THT's payload memory (the table's
	// MemoryBytes). Zero means unbounded — the paper's sweep behavior.
	// With a budget set, inserts evict residents (oldest first, under a
	// frequency-sketch admission check; see evict.go) before publishing,
	// so a sustained over-budget insert stream holds the table at or
	// under the budget. Budgets are capacity knobs, not key-validity
	// knobs: they are deliberately NOT folded into Fingerprint, so warm
	// state persists across budget changes (a snapshot is a cache;
	// restoring under a smaller budget simply evicts during install).
	THTBudgetBytes int64
}

func (c *Config) applyDefaults() {
	if c.NBits == 0 {
		c.NBits = 8
	}
	if c.M == 0 {
		c.M = 128
	}
	if c.FixedLevel < sampling.MinPLevel {
		c.FixedLevel = sampling.MinPLevel
	}
	if c.FixedLevel > sampling.MaxPLevel {
		c.FixedLevel = sampling.MaxPLevel
	}
}

// ErrConfig is the typed error Validate wraps: test with errors.Is.
var ErrConfig = errors.New("core: invalid config")

// Validate reports configuration values New would have to clamp or
// that cannot work at all, as errors wrapping ErrConfig. New itself
// stays panic-free (it clamps defensively, preserving the historical
// zero-value behavior); front-ends that accept external configuration
// (harness, atmd, atmbench) validate first so a misconfiguration is a
// diagnosable error instead of a silently resized table.
func (c Config) Validate() error {
	if c.Mode > ModeFixed {
		return fmt.Errorf("%w: unknown mode %d", ErrConfig, c.Mode)
	}
	if c.NBits < 0 || c.NBits > MaxNBits {
		// Both edges matter: a negative count is meaningless, and nbits
		// ≥ 31 overflows the bucket-count shift (gigabytes of empty
		// buckets well before that).
		return fmt.Errorf("%w: NBits %d outside [0, %d]", ErrConfig, c.NBits, MaxNBits)
	}
	if c.M < 0 {
		return fmt.Errorf("%w: negative bucket capacity M %d", ErrConfig, c.M)
	}
	if c.THTBudgetBytes < 0 {
		return fmt.Errorf("%w: negative THTBudgetBytes %d", ErrConfig, c.THTBudgetBytes)
	}
	return nil
}

// Overhead timing is sampled: the first timingWarmup tasks of a type (per
// worker) are measured exactly — keeping short runs and tests accurate —
// after which only every timingSampleth task pays the two time.Now()
// calls, with the measurement scaled up so aggregate HashTime/CopyTime
// stay representative.
const (
	timingWarmup = 64
	timingSample = 64
)

// phase is a task type's position in the dynamic-ATM lifecycle.
type phase uint8

const (
	phaseTraining phase = iota
	phaseSteady
)

// typeShard is one slice of a type's statistics, padded so different
// shards never share a cache line. A type has one shard per worker of
// the runtime bound when it was made, plus a last one that every other
// caller shares: Serve's handlers and any worker past that count. So a
// type made before a runtime binds (2 shards) sends every worker but
// worker 0 to the last shard. Every write is an atomic add, so a shard
// several goroutines write still counts exactly; a worker's own shard
// only spares it the contention. Stats sums them.
type typeShard struct {
	tasks         atomic.Int64
	executed      atomic.Int64
	memoTHT       atomic.Int64
	memoIKT       atomic.Int64
	trainHits     atomic.Int64
	trainFailures atomic.Int64
	hashNanos     atomic.Int64
	copyNanos     atomic.Int64
	_             [64]byte // to 128 bytes: two whole cache lines
}

// Type is a task type's adaptive state of §III-D. Registration makes
// it, one per name: a runtime's RegisterType (through BindType, which
// stores it in the TaskType) or NewType, for a caller without a task
// runtime, which names the type by it (PeekType, ServeTask). The steady
// state hot path reads only phaseLevel (atomic); the mutex guards the
// training-phase bookkeeping.
type Type struct {
	phaseLevel atomic.Uint32 // phase<<8 | level
	// id numbers the type in creation order, indexes ATM.typeStates and
	// tags the type's THT entries; name keys its snapshot section.
	// tauMax and lTraining are the training parameters grade applies.
	// All immutable.
	id        int
	name      string
	tauMax    float64
	lTraining int
	// seed is the type's stable hash-seed component, derived from the
	// type name (typeSeed) rather than the dense id:
	// hash keys and shuffle plans must be identical across processes for
	// persisted snapshots (snapshot.go) to hit on restore. Immutable
	// after addTypeLocked publishes the state.
	seed   uint64
	shards []typeShard // see typeShard
	// entries recycles the type's evicted THT entries with their output
	// buffers. A type's outputs keep one shape, as a rule, so memoize
	// copies into a recycled entry's buffers in place; a pool that
	// types of several shapes shared would mostly hand it another
	// shape's, which it would drop and clone afresh.
	entries sync.Pool
	// plans holds the type's shuffle plans by input-layout signature, an
	// immutable map swapped copy-on-write under ATM.planMu; readers load
	// it with one atomic pointer read.
	plans atomic.Pointer[map[uint64]*sampling.Plan]

	mu        sync.Mutex
	successes int // consecutive correct approximations at this level
	// dirtyEpoch is the save epoch (ATM.saveEpoch) of the last
	// phase/level/successes mutation, stamped under mu; a
	// delta save carries the type's metadata when dirtyEpoch exceeds
	// the last saved epoch. Zero means the state matches what the
	// restored snapshot recorded.
	dirtyEpoch uint64
}

func packPhaseLevel(ph phase, level int) uint32 { return uint32(ph)<<8 | uint32(level) }

func (ts *Type) load() (phase, int) {
	pl := ts.phaseLevel.Load()
	return phase(pl >> 8), int(pl & 0xff)
}

// scratch is the per-task Memoizer state carried from OnReady to
// OnFinished in Task.MemoScratch. One scratch per worker is recycled
// across tasks: OnReady and OnFinished for a task always run on the same
// worker, with no other task of that worker's in between.
type scratch struct {
	key   uint64
	level int8
	// tscale is the task's timing decision (tscaleFor): OnFinished times
	// its insert as OnReady timed its hash.
	tscale     int64
	trainEntry *Entry // training-phase THT hit to grade after execution (retained)
	iktKey     iktKey
	inIKT      bool
}

// workerState is the per-worker reusable machinery: the streaming hasher
// and the scratch, padded against false sharing.
type workerState struct {
	hasher  hashx.Hasher
	scratch scratch
	_       [32]byte
}

// ATM is the Approximate Task Memoization engine. It implements
// taskrt.Memoizer, taskrt.RuntimeBinder, taskrt.TypeBinder and
// taskrt.BatchObserver.
type ATM struct {
	cfg Config
	rt  *taskrt.Runtime
	tht *THT
	ikt *IKT

	// planMu serializes the building of shuffle plans (Type.plans).
	planMu sync.Mutex

	// typeStates lists every type by its id, grown copy-on-write under
	// typeMu; byName (guarded by typeMu) finds a type by its name. The
	// hot path reads neither: a task reaches its type through its
	// TaskType (state).
	typeMu     sync.Mutex
	typeStates atomic.Pointer[[]*Type]
	byName     map[string]*Type
	// pending holds restored snapshot sections (see Restore) not yet
	// claimed by a registered task type, keyed by type name; guarded by
	// typeMu. addTypeLocked installs and removes a section when its type
	// first appears.
	pending  map[string]*TypeSnapshot
	restored atomic.Int64 // THT entries installed from a snapshot

	// Incremental-snapshot state (delta.go). saveEpoch is the epoch new
	// state is stamped with; it starts at 1 and each save seals the
	// current epoch by bumping it. savedThrough (guarded by snapMu) is
	// the highest sealed epoch, so state with a stamp above it is
	// unsaved. tracking reports EnableDeltaTracking was called (the THT
	// insert log is on).
	saveEpoch    atomic.Uint64
	snapMu       sync.Mutex
	savedThrough uint64
	tracking     bool

	workers []workerState

	// probePool recycles hashers for the out-of-band key paths (HashKey,
	// Peek, Serve), which have no worker identity to borrow a hasher
	// from: concurrent front-ends (cmd/atmd) probe allocation-free.
	probePool sync.Pool

	// serveProviders numbers Serve's admitted entries (outOfBandProvider).
	serveProviders atomic.Uint64

	// deltaScanned, when a test sets it, runs between snapshotDelta's
	// metadata scan and its log drain: where traffic that races a save
	// lands.
	deltaScanned func()
}

var (
	_ taskrt.Memoizer      = (*ATM)(nil)
	_ taskrt.RuntimeBinder = (*ATM)(nil)
	_ taskrt.BatchObserver = (*ATM)(nil)
	_ taskrt.TypeBinder    = (*ATM)(nil)
)

// New builds an ATM engine. Pass it as taskrt.Config.Memoizer; the runtime
// binds itself on construction.
func New(cfg Config) *ATM {
	cfg.applyDefaults()
	a := &ATM{
		cfg:    cfg,
		tht:    NewTHT(cfg.NBits, cfg.M),
		byName: make(map[string]*Type),
	}
	a.typeStates.Store(&[]*Type{})
	a.tht.ConfigureBudget(cfg.THTBudgetBytes)
	a.probePool.New = func() any { return hashx.New(hashx.Lookup3, cfg.Seed) }
	a.saveEpoch.Store(1)
	return a
}

// BindRuntime implements taskrt.RuntimeBinder.
func (a *ATM) BindRuntime(rt *taskrt.Runtime) {
	a.typeMu.Lock() // addTypeLocked sizes a type's shards by the workers
	defer a.typeMu.Unlock()
	a.rt = rt
	a.ikt = NewIKT(rt.Workers())
	a.workers = make([]workerState, rt.Workers())
	for i := range a.workers {
		a.workers[i].hasher = hashx.New(hashx.Lookup3, a.cfg.Seed)
	}
}

// Config returns the engine's effective configuration.
func (a *ATM) Config() Config { return a.cfg }

// THT exposes the history table (for statistics and tests).
func (a *ATM) THT() *THT { return a.tht }

// IKT exposes the in-flight table (for statistics and tests).
func (a *ATM) IKT() *IKT { return a.ikt }

// OnBatchSubmitted implements taskrt.BatchObserver: it runs on the master
// thread after a batch's dependences are fully wired but before any of
// its tasks can reach a worker, so the engine-side state a ready task
// needs is prepared batch-wide instead of lazily on the worker hot path.
// Per memoizable type (deduplicated against the consecutive same-type
// runs loop nests produce) it pre-builds the shuffle plan for the
// batch's input layout, so the first OnReady of a new (type, layout)
// pair finds the copy-on-write plan map already populated.
func (a *ATM) OnBatchSubmitted(tasks []*taskrt.Task) {
	var last *taskrt.TaskType
	for _, t := range tasks {
		tt := t.Type()
		if tt == last || !tt.Config().Memoize {
			continue
		}
		last = tt
		ts := state(tt)
		ins := t.Inputs()
		if len(ins) == 0 {
			continue
		}
		if _, level := ts.load(); level < sampling.MaxPLevel {
			a.planFor(ts, sampling.SignatureOf(ins), ins)
		}
	}
}

// state returns the type BindType made for tt, a Memoize type of the
// bound runtime.
func state(tt *taskrt.TaskType) *Type { return tt.MemoType().(*Type) }

// BindType implements taskrt.TypeBinder: a runtime's Memoize type is the
// engine's type of its name (typeFor), with its τmax and L_training.
func (a *ATM) BindType(tt *taskrt.TaskType) any {
	return a.typeFor(tt.Name(), tt.TauMax(), tt.LTraining())
}

// NewType is the engine's type named name, with the default τmax and
// L_training, for a caller that runs no task runtime (the service's
// handlers, through Serve and PeekType); see typeFor.
func (a *ATM) NewType(name string) *Type {
	return a.typeFor(name, taskrt.DefaultTauMax, taskrt.DefaultLTraining)
}

// typeFor is the one place a type is born. A name has one type per
// engine, whichever runtime or caller registers it: the first
// registration makes it, numbered in creation order, and installs the
// restored snapshot section of that name, if any; a later one gets the
// same type back. Snapshot sections are keyed by name and hold one set
// of training parameters, so a registration whose τmax or L_training
// differs from the type's panics.
func (a *ATM) typeFor(name string, tauMax float64, lTraining int) *Type {
	a.typeMu.Lock()
	defer a.typeMu.Unlock()
	if ts := a.byName[name]; ts != nil {
		if ts.tauMax != tauMax || ts.lTraining != lTraining {
			panic(fmt.Sprintf("core: task type %q registered with τmax %v and L_training %d, but it has %v and %d",
				name, tauMax, lTraining, ts.tauMax, ts.lTraining))
		}
		return ts
	}
	return a.addTypeLocked(name, tauMax, lTraining)
}

// addTypeLocked builds the next type's state, installs its pending
// snapshot section, if any, and publishes it. Called under typeMu.
func (a *ATM) addTypeLocked(name string, tauMax float64, lTraining int) *Type {
	cur := *a.typeStates.Load()
	nshards := len(a.workers) + 1
	if nshards < 2 {
		nshards = 2
	}
	ts := &Type{
		id:        len(cur),
		name:      name,
		tauMax:    tauMax,
		lTraining: lTraining,
		seed:      typeSeed(name),
		shards:    make([]typeShard, nshards),
	}
	switch a.cfg.Mode {
	case ModeStatic:
		ts.phaseLevel.Store(packPhaseLevel(phaseSteady, sampling.MaxPLevel))
	case ModeFixed:
		ts.phaseLevel.Store(packPhaseLevel(phaseSteady, a.cfg.FixedLevel))
	default:
		ts.phaseLevel.Store(packPhaseLevel(phaseTraining, sampling.MinPLevel))
	}
	if sec, ok := a.pending[name]; ok {
		delete(a.pending, name)
		if !a.installSection(ts, sec) {
			// The installed metadata differs from what the snapshot
			// recorded (level clamped): the next delta must re-record it.
			ts.dirtyEpoch = a.saveEpoch.Load()
		}
	} else {
		// A type the previous save never saw: its metadata is unsaved by
		// definition.
		ts.dirtyEpoch = a.saveEpoch.Load()
	}
	grown := append(cur[:len(cur):len(cur)], ts)
	a.typeStates.Store(&grown)
	a.byName[name] = ts
	return ts
}

// shard returns the stats shard for worker w of ts (the last shard
// absorbs out-of-range callers such as tests driving the engine
// directly).
func (ts *Type) shard(w int) *typeShard {
	if w < 0 || w >= len(ts.shards)-1 {
		w = len(ts.shards) - 1
	}
	return &ts.shards[w]
}

// hasherFor returns worker w's reusable hasher, or a fresh one for
// out-of-band callers.
func (a *ATM) hasherFor(w int) hashx.Hasher {
	if w >= 0 && w < len(a.workers) {
		return a.workers[w].hasher
	}
	return hashx.New(hashx.Lookup3, a.cfg.Seed)
}

// probeHasher borrows a pooled hasher for an out-of-band key
// computation; return it with releaseProbe. Unlike hasherFor's
// fallback this never allocates in steady state.
func (a *ATM) probeHasher() hashx.Hasher   { return a.probePool.Get().(hashx.Hasher) }
func (a *ATM) releaseProbe(h hashx.Hasher) { a.probePool.Put(h) }

// FNV-1a parameters shared by typeSeed and Fingerprint (snapshot.go):
// one definition, so the two hashes cannot drift apart by a constant
// typo.
const (
	fnvOffset64 = 1469598103934665603
	fnvPrime64  = 1099511628211
)

// typeSeed derives the per-type hash-seed component from the type's
// name (FNV-1a). A stable name hash — rather than the dense type id,
// which follows creation order — keeps hash keys and shuffle plans
// identical across processes, which is what makes persisted snapshots
// restorable: a
// warm-started run recomputes exactly the keys the cold run stored, as
// long as the type names match.
func typeSeed(name string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnvPrime64
	}
	return h
}

// planFor returns ts's cached shuffle plan for an input layout of
// signature sig, building it on first use. The fast path is one atomic
// map load. The shuffle is seeded by the type's stable name hash
// (Type.seed) so plans reproduce across processes.
func (a *ATM) planFor(ts *Type, sig uint64, ins []region.Region) *sampling.Plan {
	if m := ts.plans.Load(); m != nil {
		if p := (*m)[sig]; p != nil {
			return p
		}
	}
	a.planMu.Lock()
	defer a.planMu.Unlock()
	var cur map[uint64]*sampling.Plan
	if m := ts.plans.Load(); m != nil {
		cur = *m
		if p := cur[sig]; p != nil {
			return p
		}
	}
	seed := a.cfg.Seed ^ sig ^ (ts.seed|1)*0x9e3779b97f4a7c15
	p := sampling.NewPlan(sampling.LayoutOf(ins), seed, !a.cfg.DisableTypeAware)
	grown := make(map[uint64]*sampling.Plan, len(cur)+1)
	for k, v := range cur {
		grown[k] = v
	}
	grown[sig] = p
	ts.plans.Store(&grown)
	return p
}

// HashKey computes the 8-byte key of t, a task of a Memoize type, at
// the given p level (§III-B). At level 15 (p = 100%) the whole input is
// streamed element-wise; below that, the cached shuffled index prefix
// selects the sampled bytes.
func (a *ATM) HashKey(t *taskrt.Task, level int) uint64 {
	h := a.probeHasher()
	key := a.hashIns(state(t.Type()), t.Inputs(), level, h)
	a.releaseProbe(h)
	return key
}

// hashIns is the key computation on a caller's hasher: a worker's own
// (free of allocation and locks), or a pooled one for out-of-band
// probes (HashKey, PeekType, Serve).
func (a *ATM) hashIns(ts *Type, ins []region.Region, level int, h hashx.Hasher) uint64 {
	sig := sampling.SignatureOf(ins)
	seed := a.cfg.Seed ^ sig ^ (ts.seed|1)*0xc2b2ae3d27d4eb4f
	h.ResetSeed(seed)
	if level >= sampling.MaxPLevel {
		for _, in := range ins {
			in.HashWords(h)
		}
		return h.Sum64()
	}
	for i, s := range a.planFor(ts, sig, ins).Segmented(level) {
		region.HashSelected(ins[i], s.Top, s.Offs, h)
	}
	return h.Sum64()
}

// outputShapesMatch reports whether two output lists are copy-compatible.
func outputShapesMatch(a, b []region.Region) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind() != b[i].Kind() || a[i].NumElems() != b[i].NumElems() {
			return false
		}
	}
	return true
}

// memoize is updateTHT: it stores a copy of outs, the outputs of a task
// of type typeID hashed to key at level, produced by provider. The
// budget's admission runs first, on the key and the outputs' size, so a
// task it rejects builds no entry and copies nothing; only an admitted
// one takes an entry from the type's pool (its buffers reused when the
// shapes match)
// and copies its outputs in. provider outOfBandProvider asks for the
// next of Serve's own ids, drawn only once the entry is admitted.
func (a *ATM) memoize(ts *Type, outs []region.Region, provider, key uint64, level int8) {
	size := entryBytes(outs)
	if ok, _ := a.tht.admit(key, size); !ok {
		return
	}
	if provider == outOfBandProvider {
		provider |= a.serveProviders.Add(1)
	}
	e, _ := ts.entries.Get().(*Entry)
	if e == nil {
		e = &Entry{}
	}
	if outputShapesMatch(e.Outs, outs) {
		for i, o := range outs {
			e.Outs[i].CopyFrom(o)
		}
	} else {
		cloned := make([]region.Region, len(outs))
		for i, o := range outs {
			cloned[i] = o.Clone()
		}
		e.Outs = cloned
	}
	e.TypeID = ts.id
	e.Key = key
	e.Level = level
	e.ProviderID = provider
	e.pool = &ts.entries
	a.tht.publish(e, size, true)
}

// Fig. 1's ready-task protocol is the steps below, which two drivers
// call: a runtime's workers (OnReady and OnFinished, which add the IKT,
// the tracer and per-worker scratch) and a front-end's handlers (Serve,
// which adds a quiet probe of the whole request before admission and
// counts each task only as it commits). Each step records on the stats
// shard it is given.

// tscaleFor is the timing decision for the n-th task of a shard: the
// extrapolation factor of its sampled hash and copy times, 1 for the
// first timingWarmup tasks and timingSample for every timingSample-th
// after, and 0 for a task left untimed.
func tscaleFor(n int64) int64 {
	switch {
	case n <= timingWarmup:
		return 1
	case n%timingSample == 0:
		return timingSample
	}
	return 0
}

// hash computes a task's key at level on h and reports the time it
// took, scaled by tscale (0 when untimed).
func (a *ATM) hash(ts *Type, ins []region.Region, level int, h hashx.Hasher, tscale int64) (key uint64, nanos int64) {
	var h0 time.Time
	if tscale != 0 {
		h0 = time.Now()
	}
	key = a.hashIns(ts, ins, level, h)
	if tscale != 0 {
		nanos = time.Since(h0).Nanoseconds() * tscale
	}
	return key, nanos
}

// lookup is the counted THT lookup of a task with outputs outs at the
// type's level: probeOuts, whose entry (retained) it returns, then the
// table's lookup and hit counters and the admission sketch. An entry
// that cannot be copied into outs is a miss.
func (a *ATM) lookup(ts *Type, key uint64, level int8, outs []region.Region) *Entry {
	e := a.probeOuts(ts, key, level, outs)
	a.tht.noteLookup(key, e)
	return e
}

// hit serves a task from e, which it releases: e's outputs are copied
// into outs, timed at tscale, and the task counts as memoized. It
// returns e's provider.
func (a *ATM) hit(sh *typeShard, e *Entry, outs []region.Region, tscale int64) (provider uint64) {
	var c0 time.Time
	if tscale != 0 {
		c0 = time.Now()
	}
	for i, o := range outs {
		o.CopyFrom(e.Outs[i])
	}
	if tscale != 0 {
		sh.copyNanos.Add(time.Since(c0).Nanoseconds() * tscale)
	}
	provider = e.ProviderID
	e.Release()
	sh.memoTHT.Add(1)
	return provider
}

// finish is updateTHT for a task whose body ran and produced outs: a
// training task that matched pred is graded against it (grade releases
// pred); otherwise, and after a failed grade, which leaves a stale
// prediction to refresh, outs are memoized under key, timed at tscale.
func (a *ATM) finish(ts *Type, sh *typeShard, outs []region.Region, pred *Entry, provider, key uint64, level int8, tscale int64) {
	if pred != nil && !a.grade(ts, sh, outs, pred, level) {
		return
	}
	var c0 time.Time
	if tscale != 0 {
		c0 = time.Now()
	}
	a.memoize(ts, outs, provider, key, level)
	if tscale != 0 {
		sh.copyNanos.Add(time.Since(c0).Nanoseconds() * tscale)
	}
}

// OnReady implements taskrt.Memoizer: Fig. 1's ready-task protocol on a
// runtime's worker.
func (a *ATM) OnReady(t *taskrt.Task, worker int) taskrt.Outcome {
	ts := state(t.Type())
	sh := ts.shard(worker)
	tscale := tscaleFor(sh.tasks.Add(1))
	ph, level := ts.load()

	tracer := a.rt.Tracer()
	if tracer != nil {
		tracer.SetState(worker, trace.StateHash)
	}
	key, hashNanos := a.hash(ts, t.Inputs(), level, a.hasherFor(worker), tscale)
	if tscale != 0 {
		sh.hashNanos.Add(hashNanos)
	}
	sc := a.scratchFor(worker)
	*sc = scratch{key: key, level: int8(level), tscale: tscale}
	e := a.lookup(ts, key, sc.level, t.Outputs())

	if ph == phaseTraining {
		// Training: memoization is only emulated; the task always runs
		// so τ can be measured against the matched entry (§III-D).
		sc.trainEntry = e // retained; released after grading
		t.MemoScratch = sc
		sh.executed.Add(1)
		return taskrt.OutcomeRun
	}

	// Steady state (or static / fixed-p from the start).
	if e != nil {
		if tracer != nil {
			tracer.SetState(worker, trace.StateMemo)
		}
		provider := a.hit(sh, e, t.Outputs(), tscale)
		if tracer != nil {
			tracer.Reuse(provider, t.ID(), level < sampling.MaxPLevel, false)
		}
		t.MemoScratch = nil
		return taskrt.OutcomeMemoized
	}

	if !a.cfg.DisableIKT {
		ik := iktKey{typeID: ts.id, key: key, level: int8(level)}
		inserted, deferred := a.ikt.Acquire(ik, t)
		if deferred {
			// t now belongs to its provider, which may complete it — and
			// the master recycle its slot — at once: t is not touched
			// again (its MemoScratch is still the nil it was carved with).
			sh.memoIKT.Add(1)
			return taskrt.OutcomeDeferred
		}
		sc.inIKT, sc.iktKey = inserted, ik
	}
	t.MemoScratch = sc
	sh.executed.Add(1)
	return taskrt.OutcomeRun
}

// scratchFor returns worker w's recycled scratch (or a fresh one for
// out-of-band callers).
func (a *ATM) scratchFor(w int) *scratch {
	if w >= 0 && w < len(a.workers) {
		return &a.workers[w].scratch
	}
	return new(scratch)
}

// OnFinished implements taskrt.Memoizer: Fig. 1's updateTHT&IKT() path,
// plus dynamic ATM's training-phase grading, on a runtime's worker.
func (a *ATM) OnFinished(t *taskrt.Task, worker int) {
	sc := t.MemoScratch.(*scratch) // every OutcomeRun of OnReady carries one
	t.MemoScratch = nil
	ts := state(t.Type())
	tracer := a.rt.Tracer()
	if tracer != nil && sc.trainEntry == nil {
		tracer.SetState(worker, trace.StateMemo)
	}
	a.finish(ts, ts.shard(worker), t.Outputs(), sc.trainEntry, t.ID(), sc.key, sc.level, sc.tscale)
	sc.trainEntry = nil

	// Serve postponed copies (IKT waiters) and complete them.
	if sc.inIKT {
		waiters := a.ikt.Release(sc.iktKey, t)
		for _, w := range waiters {
			for i, o := range w.Outputs() {
				o.CopyFrom(t.Outputs()[i])
			}
			if tracer != nil {
				tracer.Reuse(t.ID(), w.ID(), int(sc.level) < sampling.MaxPLevel, true)
			}
			a.rt.CompleteExternal(w)
		}
	}
}

// grade measures a training-phase approximation of a task of type ts
// hashed at level, against ts's τmax and L_training: the task executed,
// so outs, its fresh outputs, are the ground truth against pred, the THT
// entry's prediction, which grade releases. It reports a failed grade,
// after which finish inserts outs to refresh the stale prediction.
// Every failed grade doubles p (§III-D), in either driver.
func (a *ATM) grade(ts *Type, sh *typeShard, outs []region.Region, pred *Entry, level int8) (failed bool) {
	tau := metrics.Chebyshev(outs, pred.Outs)
	pred.Release()

	ts.mu.Lock()
	ph, cur := ts.load()
	if ph != phaseTraining || int(level) != cur {
		// The level moved while this task was in flight; its grade is
		// stale. Count it as a hit observation only.
		ts.mu.Unlock()
		sh.trainHits.Add(1)
		return false
	}
	sh.trainHits.Add(1)
	ts.dirtyEpoch = a.saveEpoch.Load() // every branch below mutates the metadata
	if tau >= ts.tauMax {
		sh.trainFailures.Add(1)
		if cur < sampling.MaxPLevel {
			ts.phaseLevel.Store(packPhaseLevel(phaseTraining, cur+1)) // double p
			ts.successes = 0
		}
		ts.mu.Unlock()
		return true
	}
	ts.successes++
	if ts.successes >= ts.lTraining {
		ts.phaseLevel.Store(packPhaseLevel(phaseSteady, cur))
	}
	ts.mu.Unlock()
	return false
}
