// Package harness runs the paper's evaluation (§IV–§V): it executes every
// benchmark under the baseline runtime and under ATM configurations, and
// regenerates each table and figure of the paper from the measurements.
package harness

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"atm/internal/apps"
	"atm/internal/apps/blackscholes"
	"atm/internal/apps/kmeans"
	"atm/internal/apps/sparselu"
	"atm/internal/apps/stencil"
	"atm/internal/apps/swaptions"
	"atm/internal/core"
	"atm/internal/persist"
	"atm/internal/taskrt"
	"atm/internal/trace"
)

// Benchmarks lists the evaluated applications in Table I order.
func Benchmarks() []string {
	return []string{"Blackscholes", "GS", "Jacobi", "Kmeans", "LU", "Swaptions"}
}

// FactoryFor returns the workload factory for a Table I benchmark name
// (short names "GS"/"Gauss-Seidel" both accepted), or nil.
func FactoryFor(name string) apps.Factory {
	switch name {
	case "Blackscholes", "blackscholes":
		return blackscholes.Factory
	case "GS", "Gauss-Seidel", "gs", "gauss-seidel":
		return stencil.Factory(stencil.GaussSeidel)
	case "Jacobi", "jacobi":
		return stencil.Factory(stencil.Jacobi)
	case "Kmeans", "kmeans":
		return kmeans.Factory
	case "LU", "lu", "SparseLU", "sparselu":
		return sparselu.Factory
	case "Swaptions", "swaptions":
		return swaptions.Factory
	default:
		return nil
	}
}

// ATMSpec describes one ATM configuration of the evaluation matrix.
type ATMSpec struct {
	// Enabled false means the plain baseline runtime (no ATM).
	Enabled bool
	// Mode is the ATM operating mode.
	Mode core.Mode
	// Level is the p level for core.ModeFixed.
	Level int
	// IKT enables the In-flight Key Table.
	IKT bool
}

// Baseline is the no-ATM configuration.
func Baseline() ATMSpec { return ATMSpec{} }

// Static returns static ATM (p = 100%).
func Static(ikt bool) ATMSpec { return ATMSpec{Enabled: true, Mode: core.ModeStatic, IKT: ikt} }

// Dynamic returns dynamic ATM.
func Dynamic(ikt bool) ATMSpec { return ATMSpec{Enabled: true, Mode: core.ModeDynamic, IKT: ikt} }

// Fixed returns constant-p ATM at the given level.
func Fixed(level int, ikt bool) ATMSpec {
	return ATMSpec{Enabled: true, Mode: core.ModeFixed, Level: level, IKT: ikt}
}

// Name renders the spec like the paper's legends.
func (s ATMSpec) Name() string {
	if !s.Enabled {
		return "baseline"
	}
	tail := " (THT)"
	if s.IKT {
		tail = " (THT+IKT)"
	}
	switch s.Mode {
	case core.ModeStatic:
		return "Static ATM" + tail
	case core.ModeDynamic:
		return "Dynamic ATM" + tail
	default:
		return "Fixed-p ATM" + tail
	}
}

// Outcome is one measured run.
type Outcome struct {
	App     apps.App
	Spec    ATMSpec
	Workers int
	Elapsed time.Duration
	// Stats is the ATM snapshot (zero value for baseline runs).
	Stats core.Stats
	// ChosenLevels maps memoized type names to their final p level.
	ChosenLevels map[string]int
	// Tracer is non-nil when the run was traced.
	Tracer *trace.Tracer
	// ATMMemory is the THT payload in bytes at the end of the run.
	ATMMemory int64
	// WarmStart reports that the engine was restored from a snapshot
	// before the run; RestoredEntries counts the THT entries the run
	// actually installed from it.
	WarmStart       bool
	RestoredEntries int64
	// SnapshotErr records a chain load/save failure (the run itself
	// still happened, cold). A missing RunOptions.SnapshotChain file is
	// a normal cold start that creates the chain, not an error.
	SnapshotErr error
	// DeltaSaves counts the incremental saves a chain-mode run
	// performed (periodic plus the final one); DeltaBytes is the total
	// growth they appended to the chain file — the number that stays
	// sublinear in table size when inter-save churn is small.
	DeltaSaves int
	DeltaBytes int64
	// Salvaged reports that the snapshot file had a torn tail (a crash
	// artifact) that RecoverSalvage truncated away before warm-starting;
	// Recovery describes what was kept and dropped. ColdFallback reports
	// that a damaged file could not warm-start under the policy and the
	// run started cold instead (RecoverCold on any damage, or
	// RecoverSalvage on unrecoverable corruption).
	Salvaged     bool
	ColdFallback bool
	Recovery     persist.RecoveryReport
	// SaverRetries counts delta-save attempts that failed and were
	// retried (bounded, exponential backoff); SaverFailures counts
	// saves abandoned after the retry budget — each such failure also
	// sets SnapshotErr and stops further saves.
	SaverRetries  int
	SaverFailures int
}

// Reuse returns the run's overall memoized-task fraction.
func (o Outcome) Reuse() float64 { return o.Stats.TotalReuse() }

// THTHitRatio returns hits over lookups, the warm-start headline
// number: a warm run's ratio is high from the first task, a cold run's
// climbs only as the table fills.
func (o Outcome) THTHitRatio() float64 {
	if o.Stats.THTLookups == 0 {
		return 0
	}
	return float64(o.Stats.THTHits) / float64(o.Stats.THTLookups)
}

// RecoverPolicy decides what a run does when its snapshot or chain
// file turns out damaged — torn by a crash mid-save, or corrupt. The
// matrix is documented in docs/persistence.md; snapshots are caches,
// so every policy still produces a correct run, they differ only in
// how much warm state survives and whether the damage is surfaced.
type RecoverPolicy int

const (
	// RecoverStrict (the default) treats any damaged file as an error:
	// the run proceeds cold, the failure lands in Outcome.SnapshotErr,
	// and the file is left untouched for inspection and repair
	// (snapshotctl verify/repair).
	RecoverStrict RecoverPolicy = iota
	// RecoverSalvage repairs a torn tail in place — truncating to the
	// last valid record boundary, exactly `snapshotctl repair` — and
	// warm-starts from the salvaged prefix. Unrecoverable damage
	// degrades to a cold start as under RecoverCold.
	RecoverSalvage
	// RecoverCold discards any damaged file and starts cold, letting
	// the run recreate the chain from scratch: maximum availability, no
	// salvage attempt, nothing surfaced in SnapshotErr.
	RecoverCold
)

// String renders the policy as atmbench's -recover flag spells it.
func (p RecoverPolicy) String() string {
	switch p {
	case RecoverSalvage:
		return "salvage"
	case RecoverCold:
		return "cold"
	default:
		return "strict"
	}
}

// ParseRecoverPolicy parses atmbench's -recover flag value; the empty
// string is the strict default.
func ParseRecoverPolicy(s string) (RecoverPolicy, error) {
	switch s {
	case "", "strict":
		return RecoverStrict, nil
	case "salvage":
		return RecoverSalvage, nil
	case "cold":
		return RecoverCold, nil
	default:
		return 0, fmt.Errorf("unknown recover policy %q (strict|salvage|cold)", s)
	}
}

// RunOptions tune a single run.
type RunOptions struct {
	// Detail enables full interval tracing (needed for Figs. 7/8).
	Detail bool
	// Trace enables the tracer at all (reuse logs for Fig. 9). When
	// Detail is set, Trace is implied.
	Trace bool
	// Seed perturbs ATM's shuffle plans.
	Seed uint64
	// Policy selects RunOne's scheduling discipline (zero value = FIFO;
	// a Serve engine always runs FIFO).
	Policy taskrt.SchedPolicy
	// Deterministic runs the workload under taskrt's deterministic
	// executor: every scheduling decision is drawn from Seed, so the same
	// seed replays the same task interleaving bit-identically (see
	// docs/determinism.md). Timing from such a run measures a
	// single-goroutine replay, not parallel performance.
	Deterministic bool
	// DetSched is the deterministic ready-queue discipline
	// (fifo|lifo|random|adversarial; zero value follows Policy).
	DetSched taskrt.DetSched
	// SnapshotChain names the chain file that carries warm state across
	// processes — the repeated-experiment-sweep amortization the paper's
	// training cost asks for. When set (and the spec enables ATM) the
	// run warm-starts from the file when it exists (base restored,
	// deltas replayed in order) and saves by appending a delta record of
	// just this run's changes: O(churn) I/O per repetition. A missing
	// file is a cold start that creates the chain with an empty base.
	// The run owns the file: Recover may repair or delete it.
	SnapshotChain string
	// SnapshotDeltaEvery additionally appends a delta every interval
	// while the run executes: the long-lived-service scenario, where
	// warm state must survive a crash mid-run. Each periodic save
	// quiesces through the runtime's completion fence.
	SnapshotDeltaEvery time.Duration
	// Recover selects the reaction to a damaged snapshot or chain file
	// (strict error / salvage torn tails / cold fallback).
	Recover RecoverPolicy
	// Sync is the durability policy for this run's snapshot saves:
	// persist.SyncAlways (the zero value) fsyncs every save as a
	// crash-consistent service should; persist.SyncOff is for
	// benchmarks that must not measure fsync latency.
	Sync persist.SyncPolicy
	// THTBudgetBytes caps the THT's payload memory (0 = unbounded) — the
	// -tht-budget flag of atmbench and atmd. A capacity knob only: it is
	// not folded into the config fingerprint, so a snapshot written under
	// one budget restores under another.
	THTBudgetBytes int64
	// TenantShares gives named tenants (the prefix before the first '/'
	// in a task-type name) fractional shares of THTBudgetBytes.
	TenantShares map[string]float64
}

// memoState is the opened memoization state of a run or a served
// engine: the engine itself (nil when the spec disables ATM), how it
// warm-started, and the chain its saves append to. It is shared by
// RunOne (the evaluation path) and Serve (the service path), and it
// alone decides where warm state is written. appendDelta must be called
// from one goroutine at a time (RunOne serializes the periodic saver
// against the final save; the service engine runs every save on its
// loop goroutine).
type memoState struct {
	memo     *core.ATM
	warm     bool
	salvaged bool
	coldFB   bool
	recovery persist.RecoveryReport
	err      error

	// chain is the chain file path ("" = no persistence).
	chain string
	sync  persist.SyncPolicy

	deltaSaves    int
	deltaBytes    int64
	saverRetries  int
	saverFailures int
}

// openMemo builds (and possibly warm-starts) the ATM engine for a spec
// under the persistence options: with a chain file it restores from it
// under the recovery policy, enables delta tracking and creates the
// file on a cold start. For a disabled spec the state is empty (nil
// memo).
func openMemo(spec ATMSpec, opt RunOptions) *memoState {
	st := &memoState{sync: opt.Sync}
	if !spec.Enabled {
		return st
	}
	st.chain = opt.SnapshotChain
	cfg := core.Config{Mode: spec.Mode, FixedLevel: spec.Level, DisableIKT: !spec.IKT, Seed: opt.Seed,
		THTBudgetBytes: opt.THTBudgetBytes, TenantShares: opt.TenantShares}
	if err := cfg.Validate(); err != nil {
		st.err = err
		st.memo = core.New(core.Config{Mode: spec.Mode, FixedLevel: spec.Level, DisableIKT: !spec.IKT, Seed: opt.Seed})
		return st
	}
	if st.chain == "" {
		st.memo = core.New(cfg)
		return st
	}
	st.memo, st.warm, st.salvaged, st.coldFB, st.recovery, st.err = recoverChain(cfg, st.chain, opt.Recover, opt.Sync)
	if st.err != nil && errors.Is(st.err, os.ErrNotExist) {
		st.err = nil // cold start: this repetition creates the chain
	}
	if st.memo == nil {
		st.memo = core.New(cfg)
	}
	if st.err == nil {
		// A failed chain load means no save will ever drain the
		// insert log; don't start retaining entries for it.
		st.memo.EnableDeltaTracking()
	}
	if !st.warm && st.err == nil {
		// First repetition (or cold fallback): create the chain file,
		// its base holding this engine's (empty) pre-run state, so the
		// later saves can append O(churn) delta records.
		if snap, err := st.memo.Snapshot(); err != nil {
			st.err = err
		} else if err := persist.SaveChainSync(st.chain, snap, nil, opt.Sync); err != nil {
			st.err = err
		}
		if st.err != nil {
			st.memo.DisableDeltaTracking() // nothing will drain the log
		}
	}
	return st
}

// appendDelta appends one delta record of the engine's churn since the
// last save to the chain file, with bounded retry. Every save appends
// one record; file growth is the honest measure of save cost (it
// includes record framing). Returns the save's error (also
// latched in st.err; a latched error disables all further saves).
func (st *memoState) appendDelta() error {
	if st.err != nil {
		return st.err
	}
	// The delta is only encoded and dropped, so it is borrowed from the
	// table (LendDelta), not copied out of it.
	err := st.memo.LendDelta(st.appendRecord)
	if err != nil {
		st.err = err
		st.memo.DisableDeltaTracking() // no further saves will drain the log
	}
	return err
}

// appendRecord appends d to the chain file, with bounded retry.
func (st *memoState) appendRecord(d *core.Delta) error {
	// The stats are best-effort: a failed Stat must not abort the
	// save itself.
	var preSize int64 = -1
	if pre, err := os.Stat(st.chain); err == nil {
		preSize = pre.Size()
	}
	// Bounded retry with exponential backoff: transient I/O failures
	// (ENOSPC racing a cleaner, a blip on network storage) must not
	// permanently stop a long-lived service's saves. The retry is
	// safe because a failed append truncates itself back to the
	// record boundary (persist.AppendDeltaSync), so a retry can
	// never double-append. After the budget the save is abandoned:
	// the error latches and delta tracking stops, since nothing
	// will drain the insert log.
	for attempt := 0; ; attempt++ {
		err := persist.AppendDeltaSync(st.chain, d, st.sync)
		if err == nil {
			break
		}
		if attempt+1 >= saverMaxAttempts {
			st.saverFailures++
			return err
		}
		st.saverRetries++
		time.Sleep(saverBackoffBase << attempt)
	}
	if post, err := os.Stat(st.chain); err == nil && preSize >= 0 {
		st.deltaBytes += post.Size() - preSize
	}
	st.deltaSaves++
	return nil
}

// RunOne builds a fresh workload and executes it once under the spec.
// Workload construction is excluded from the timing; the measured window
// covers task submission, execution and the final taskwait — the same
// window as the paper's equation 2.
func RunOne(factory apps.Factory, scale apps.Scale, workers int, spec ATMSpec, opt RunOptions) Outcome {
	app := factory(scale)

	var tr *trace.Tracer
	if opt.Trace || opt.Detail {
		tr = trace.New(workers, opt.Detail)
	}
	st := openMemo(spec, opt)
	var memo *core.ATM
	var m taskrt.Memoizer
	if spec.Enabled {
		memo = st.memo
		m = memo
	}
	rt := taskrt.New(taskrt.Config{Workers: workers, Memoizer: m, Tracer: tr, Policy: opt.Policy,
		Seed: opt.Seed, Deterministic: opt.Deterministic, DetSched: opt.DetSched})

	stopSaver := make(chan struct{})
	var saverWG sync.WaitGroup
	// The periodic saver is incompatible with deterministic mode: each
	// save quiesces via rt.Wait, which under Config.Deterministic may only
	// be called from the master goroutine (the run still gets its final
	// delta save after app.Run returns).
	if st.chain != "" && opt.SnapshotDeltaEvery > 0 && memo != nil && st.err == nil && !opt.Deterministic {
		saverWG.Add(1)
		go func() {
			defer saverWG.Done()
			tick := time.NewTicker(opt.SnapshotDeltaEvery)
			defer tick.Stop()
			for {
				select {
				case <-stopSaver:
					return
				case <-tick.C:
					_ = st.appendDelta() // quiesces via the runtime's completion fence
				}
			}
		}()
	}

	start := time.Now()
	app.Run(rt)
	elapsed := time.Since(start)
	close(stopSaver)
	saverWG.Wait()
	rt.Close()

	out := Outcome{App: app, Spec: spec, Workers: workers, Elapsed: elapsed, Tracer: tr, WarmStart: st.warm}
	if memo != nil {
		out.Stats = memo.Stats()
		out.ATMMemory = memo.MemoryBytes()
		out.RestoredEntries = memo.RestoredEntries()
		out.ChosenLevels = map[string]int{}
		for _, ts := range out.Stats.Types {
			out.ChosenLevels[ts.Name] = ts.Level
		}
		if st.chain != "" {
			_ = st.appendDelta() // the final save: this run's remaining churn
		}
	}
	out.SnapshotErr = st.err
	out.DeltaSaves, out.DeltaBytes = st.deltaSaves, st.deltaBytes
	out.Salvaged, out.ColdFallback, out.Recovery = st.salvaged, st.coldFB, st.recovery
	out.SaverRetries, out.SaverFailures = st.saverRetries, st.saverFailures
	return out
}

// Delta-saver retry tuning. Vars, not consts, so tests can shrink the
// backoff; production code never mutates them.
var (
	saverMaxAttempts = 3
	saverBackoffBase = 25 * time.Millisecond
)

// recoverChain is restoreChain under a recovery policy: it decides
// whether a damaged chain file becomes a reported error (strict), a
// repaired warm start (salvage), or a discarded file and cold start
// (cold). A missing file always surfaces as os.ErrNotExist — the
// ordinary first-repetition cold start, never a fallback.
func recoverChain(cfg core.Config, path string, policy RecoverPolicy, sync persist.SyncPolicy) (memo *core.ATM, warm, salvaged, cold bool, rep persist.RecoveryReport, err error) {
	memo, warm, err = restoreChain(cfg, path, sync)
	if err == nil || errors.Is(err, os.ErrNotExist) || policy == RecoverStrict {
		return memo, warm, false, false, rep, err
	}
	if policy == RecoverSalvage {
		// Repair first — truncate the torn tail on disk — because this
		// chain will be appended to: records landing after torn bytes
		// would be unreachable. Then reload strictly.
		rrep, rerr := persist.RepairChain(path, sync)
		rep = rrep
		if rerr == nil {
			if m, w, lerr := restoreChain(cfg, path, sync); lerr == nil {
				return m, w, !rrep.Clean(), false, rrep, nil
			}
		}
		// Unrecoverable (or repaired yet still unloadable — e.g. config
		// skew): degrade to cold like RecoverCold.
	}
	// Cold fallback: discard the damaged file (and any stale temp) so
	// this run recreates the chain from scratch. A snapshot is a cache;
	// availability beats preserving a file no policy can load.
	persist.RemoveStaleTemp(path)
	if rmErr := os.Remove(path); rmErr != nil && !errors.Is(rmErr, os.ErrNotExist) {
		return nil, false, false, false, rep, rmErr
	}
	return nil, false, false, true, rep, nil
}

// restoreChain loads a chain file of either format version and builds
// a warm engine from it: the base is restored and any delta records are
// replayed in order. The file must start with its base, and it takes
// this run's delta appends: a legacy version-1 file, which cannot take
// one, is rewritten (durably, under sync) as a base-only version-2
// chain of the decoded base. Returns (nil, false, err) on any failure,
// including a missing file (errors.Is os.ErrNotExist — the caller's
// cold start).
func restoreChain(cfg core.Config, path string, sync persist.SyncPolicy) (*core.ATM, bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, err
	}
	base, deltas, err := persist.UnmarshalChain(data)
	if err != nil {
		return nil, false, fmt.Errorf("%s: %w", path, err)
	}
	if base == nil {
		return nil, false, fmt.Errorf("%s: chain has no base record (a delta-only shard file cannot warm-start alone)", path)
	}
	memo, err := core.RestoreChain(cfg, base, deltas)
	if err != nil {
		return nil, false, fmt.Errorf("%s: %w", path, err)
	}
	// The engine now owns base, so the rewrite encodes a fresh decode.
	if ver, _ := persist.FileVersion(data); ver == persist.Version1 {
		legacy, _, err := persist.UnmarshalChain(data)
		if err == nil {
			err = persist.SaveChainSync(path, legacy, nil, sync)
		}
		if err != nil {
			return nil, false, err
		}
	}
	return memo, true, nil
}

// RunMedian runs the spec `repeats` times and returns the run with the
// median elapsed time (workloads are deterministic, so any run's outputs
// are representative; the median de-noises the timing).
func RunMedian(factory apps.Factory, scale apps.Scale, workers int, spec ATMSpec, opt RunOptions, repeats int) Outcome {
	if repeats < 1 {
		repeats = 1
	}
	outs := make([]Outcome, 0, repeats)
	for i := 0; i < repeats; i++ {
		outs = append(outs, RunOne(factory, scale, workers, spec, opt))
	}
	sort.Slice(outs, func(i, j int) bool { return outs[i].Elapsed < outs[j].Elapsed })
	return outs[len(outs)/2]
}

// Speedup computes equation 2: baseline time over ATM time.
func Speedup(baseline, atm Outcome) float64 {
	if atm.Elapsed <= 0 {
		return 0
	}
	return float64(baseline.Elapsed) / float64(atm.Elapsed)
}

// OracleResult is the outcome of an offline oracle sweep (§V-A): the
// fastest constant-p configuration whose final correctness meets a bound.
type OracleResult struct {
	Level       int
	Outcome     Outcome
	Correctness float64
	Found       bool
}

// Oracle sweeps all 16 p levels with constant-p ATM and returns the
// fastest configuration whose correctness (against ref) is at least
// minCorrectness percent. Level 15 (p = 100%) always qualifies, matching
// the paper's Oracle(100%) ⊆ Oracle(95%) containment.
func Oracle(factory apps.Factory, scale apps.Scale, workers int, ref Outcome,
	minCorrectness float64, ikt bool, opt RunOptions, repeats int) OracleResult {
	best := OracleResult{}
	for level := 0; level <= 15; level++ {
		o := RunMedian(factory, scale, workers, Fixed(level, ikt), opt, repeats)
		c := o.App.Correctness(ref.App)
		if c < minCorrectness {
			continue
		}
		if !best.Found || o.Elapsed < best.Outcome.Elapsed {
			best = OracleResult{Level: level, Outcome: o, Correctness: c, Found: true}
		}
	}
	return best
}
