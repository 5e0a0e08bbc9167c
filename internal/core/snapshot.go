package core

import (
	"errors"
	"fmt"
	"sort"

	"atm/internal/region"
	"atm/internal/sampling"
)

// This file is the engine's snapshot boundary: the paper's payoff is
// amortization — memoization only wins once the THT is warm — yet a
// fresh process always starts cold. Snapshot extracts the serializable
// memoization state (THT entries, per-type adaptive state, a config
// fingerprint) and Restore rebuilds a new engine from it, so repeated
// experiment sweeps pay the training phase once. The external binary
// representation lives in package persist.

// ErrSnapshotConfig is returned by Restore when the snapshot was taken
// under a configuration whose fingerprint differs from the restoring
// engine's: serving hits from such a snapshot could silently mis-hit
// (different hash seeds or shuffle plans), so it is rejected instead.
var ErrSnapshotConfig = errors.New("core: snapshot config fingerprint mismatch")

// Snapshot is the serializable state of a quiescent ATM engine. The
// regions it references are deep copies on the Snapshot() side and are
// adopted by the engine on the Restore() side — do not reuse a Snapshot
// after passing it to Restore.
type Snapshot struct {
	// Fingerprint identifies the Config the state was produced under
	// (see Fingerprint); Restore rejects a mismatch.
	Fingerprint uint64
	// IKT carries the In-flight Key Table's lifetime counters at
	// snapshot time. The table itself is empty at quiescence (every
	// provider released its key at completion), so counters are its only
	// content; they are informational and are not replayed by Restore.
	IKT IKTCounters
	// Types are the per-task-type sections, in type-registration order
	// with any carried-over (never re-registered) sections after them.
	Types []TypeSnapshot
}

// IKTCounters mirrors IKT.Counters.
type IKTCounters struct {
	Inserts, Defers, Rejected int64
}

// TypeSnapshot is one task type's memoization state, keyed by the
// type's name: dense type IDs are assigned per-runtime in registration
// order, so the name is the only identity stable across processes
// (hash seeds are derived from it too — see typeSeed).
type TypeSnapshot struct {
	Name string
	// Steady reports whether dynamic training had completed; Level is
	// the chosen (or in-progress) p level.
	Steady bool
	Level  int
	// Successes is the consecutive-correct-approximations counter of an
	// in-training type (meaningless when Steady).
	Successes int
	// Excluded is the size of the type's chaotic-output exclusion set.
	// The set itself is keyed by per-process region identity and cannot
	// be carried across processes; Restore re-enters training for a type
	// with a non-empty set so the warm run rebuilds it (never serving
	// steady-state hits it can no longer guard).
	Excluded int
	Entries  []EntrySnapshot
}

// EntrySnapshot is one THT entry: the key, the p level it was computed
// at, and the provider's output snapshots. With Tombstone set it is
// instead an eviction record — the identity of an entry the live table
// removed — and carries no regions. Tombstones appear only inside delta
// operation streams (Delta.Entries and pending sections mid-restore); a
// full Snapshot never contains one, and persist's full-entry codec
// rejects them.
type EntrySnapshot struct {
	Key       uint64
	Level     int8
	Provider  uint64
	Outs      []region.Region
	Tombstone bool
}

// Fingerprint hashes every Config field that determines whether stored
// keys remain valid — Seed and DisableTypeAware feed the hash and
// shuffle plans directly; the mode, level and table-shape fields are
// included too so a snapshot only ever restores into an identically
// configured engine. Defaults are applied first, so Config{} and the
// spelled-out equivalent fingerprint identically.
//
// THTBudgetBytes is deliberately excluded: it is a capacity knob, not
// a key-validity knob. A snapshot is a cache — restoring it under a
// different budget yields valid (merely fewer or differently chosen)
// entries, and an operator must be able to resize a service's budget
// across restarts without discarding its warm state. A type-name
// prefix needs no fingerprint bit either: the name seeds the key hash
// (typeSeed), so differently named types' key spaces are disjoint by
// construction.
func Fingerprint(cfg Config) uint64 {
	cfg.applyDefaults()
	h := uint64(fnvOffset64)
	mix := func(v uint64) {
		h ^= v
		h *= fnvPrime64
	}
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	mix(uint64(cfg.Mode))
	mix(uint64(cfg.FixedLevel))
	mix(uint64(cfg.NBits))
	mix(uint64(cfg.M))
	mix(b2u(cfg.DisableIKT))
	mix(b2u(cfg.DisableTypeAware))
	mix(0) // a retired field's slot: keeps recorded fingerprints (TestFingerprintPinned)
	mix(cfg.Seed)
	return h
}

// Snapshot extracts the engine's memoization state. It quiesces through
// the runtime's completion fence (Wait) when the engine is bound, so
// every in-flight task has published its THT insert and released its
// IKT key before the tables are read, and it holds concurrent Serve
// calls' inserts off while it reads; an unbound engine (tests driving
// the hooks directly) is the caller's responsibility to quiesce. The
// returned regions are deep copies: the engine may keep running and
// recycling entries afterwards.
func (a *ATM) Snapshot() (*Snapshot, error) {
	if a.rt != nil {
		a.rt.Wait()
	}
	// Serve inserts off the runtime, so Wait does not quiesce them: hold
	// them off from the table scan to the log drain below.
	a.serveInserts.Lock()
	defer a.serveInserts.Unlock()
	snap := &Snapshot{Fingerprint: Fingerprint(a.cfg)}
	if a.ikt != nil {
		if n := a.ikt.Len(); n != 0 {
			return nil, fmt.Errorf("core: snapshot with %d in-flight IKT entries (engine not quiescent)", n)
		}
		snap.IKT.Inserts, snap.IKT.Defers, snap.IKT.Rejected = a.ikt.Counters()
	}
	byType := map[int][]EntrySnapshot{}
	a.tht.forEach(func(e *Entry) {
		byType[e.TypeID] = append(byType[e.TypeID], EntrySnapshot{
			Key:      e.Key,
			Level:    e.Level,
			Provider: e.ProviderID,
			Outs:     cloneRegions(e.Outs),
		})
	})
	if err := a.collectTypeSections(snap, byType); err != nil {
		return nil, err
	}
	// A successful full snapshot supersedes the accumulated delta
	// state: every insert the log references is covered by the table
	// scan above, so the log is discarded and the current epoch sealed
	// — the next SnapshotDelta carries only changes made after this
	// point. The supersession commits only now, after every failure
	// path is behind us: a failed Snapshot must leave the delta chain
	// intact (draining up front would silently drop those inserts from
	// every future delta). It also runs outside typeMu, preserving the
	// snapMu→typeMu lock order SnapshotDelta uses. Under the full
	// snapshot's quiescence contract (the runtime's Wait, plus the
	// serveInserts fence for Serve) no insert races the scan-then-drain
	// window; racing saves belong to SnapshotDelta, whose drain
	// partitions inserts exactly.
	a.snapMu.Lock()
	if a.tracking {
		for _, r := range a.tht.DrainLog() {
			r.e.Release()
		}
		a.savedThrough = a.saveEpoch.Add(1) - 1
	}
	a.snapMu.Unlock()
	return snap, nil
}

// FoldEntryOps folds an ordered operation stream (inserts and
// tombstones) into the equivalent insert-only list: each tombstone
// cancels the oldest uncancelled insert matching its (key, level,
// provider) identity, exactly the entry THT.Remove would take off the
// ring at replay time. A tombstone with no match is dropped — the
// replay-side removal of an absent entry is a no-op, so the fold
// mirrors it. Because the live table logs every eviction as an
// explicit tombstone, replaying the folded list reproduces the same
// table as replaying the operations (the property persist.Compact
// builds on to make compacted chains shrink).
func FoldEntryOps(ops []EntrySnapshot) []EntrySnapshot {
	tombs := 0
	for i := range ops {
		if ops[i].Tombstone {
			tombs++
		}
	}
	if tombs == 0 {
		return ops
	}
	out := make([]EntrySnapshot, 0, len(ops)-tombs)
	for _, op := range ops {
		if !op.Tombstone {
			out = append(out, op)
			continue
		}
		for i := range out {
			if out[i].Key == op.Key && out[i].Level == op.Level && out[i].Provider == op.Provider {
				out = append(out[:i], out[i+1:]...)
				break
			}
		}
	}
	return out
}

// collectTypeSections appends the per-type sections (registered types
// first, then carried unclaimed pending sections) to snap, under
// typeMu.
func (a *ATM) collectTypeSections(snap *Snapshot, byType map[int][]EntrySnapshot) error {
	a.typeMu.Lock()
	defer a.typeMu.Unlock()
	var states []*typeState
	if sl := a.typeStates.Load(); sl != nil {
		states = *sl
	}
	seen := make(map[string]bool, len(states))
	for id, ts := range states {
		if ts == nil {
			continue
		}
		name := a.names[id]
		if seen[name] {
			// The runtime does not enforce type-name uniqueness, but the
			// snapshot's sections are name-keyed: writing the collision
			// out would produce a file every later Load rejects. Fail at
			// save time, where it is diagnosable.
			return fmt.Errorf("core: two task types named %q: snapshot sections are keyed by type name", name)
		}
		seen[name] = true
		ph, level := ts.load()
		ts.mu.Lock()
		succ := ts.successes
		excl := len(ts.excluded)
		ts.mu.Unlock()
		snap.Types = append(snap.Types, TypeSnapshot{
			Name:      name,
			Steady:    ph == phaseSteady,
			Level:     level,
			Successes: succ,
			Excluded:  excl,
			Entries:   byType[id],
		})
	}
	// Sections restored into this engine whose types never re-registered
	// carry through (a sweep alternating workloads must not lose the
	// idle workload's warm state). Cloned: the pending map may later be
	// installed into the THT, whose recycling mutates entries. Pending
	// sections are operation streams — a chained delta may have left
	// tombstones — and a full snapshot carries entries only, so the ops
	// are folded first (FoldEntryOps replays removals textually, which
	// installSection would otherwise do on the ring).
	carried := make([]string, 0, len(a.pending))
	for name := range a.pending {
		carried = append(carried, name)
	}
	sort.Strings(carried)
	for _, name := range carried {
		sec := a.pending[name]
		cp := *sec
		folded := FoldEntryOps(sec.Entries)
		cp.Entries = make([]EntrySnapshot, len(folded))
		for i, es := range folded {
			cp.Entries[i] = EntrySnapshot{
				Key:      es.Key,
				Level:    es.Level,
				Provider: es.Provider,
				Outs:     cloneRegions(es.Outs),
			}
		}
		snap.Types = append(snap.Types, cp)
	}
	return nil
}

func cloneRegions(rs []region.Region) []region.Region {
	if rs == nil {
		return nil
	}
	out := make([]region.Region, len(rs))
	for i, r := range rs {
		out[i] = r.Clone()
	}
	return out
}

// Restore builds a fresh engine from cfg pre-warmed with the state in
// snap. The snapshot's fingerprint must match cfg's or Restore fails
// with ErrSnapshotConfig — a snapshot taken under different hash seeds
// or shuffle plans must never serve hits. Restored sections are held
// pending by type name and installed (adaptive level adopted, THT
// entries inserted) when the matching type first registers, so restore
// order is independent of type-registration order. The engine adopts
// snap's regions; do not reuse snap afterwards.
func Restore(cfg Config, snap *Snapshot) (*ATM, error) {
	a := New(cfg)
	if want := Fingerprint(a.cfg); snap.Fingerprint != want {
		return nil, fmt.Errorf("%w: snapshot %#016x, config %#016x", ErrSnapshotConfig, snap.Fingerprint, want)
	}
	a.pending = make(map[string]*TypeSnapshot, len(snap.Types))
	for i := range snap.Types {
		sec := &snap.Types[i]
		if _, dup := a.pending[sec.Name]; dup {
			return nil, fmt.Errorf("core: duplicate snapshot section for type %q", sec.Name)
		}
		a.pending[sec.Name] = sec
	}
	return a, nil
}

// RestoreChain is Restore for a decoded chain: the base is restored
// and the deltas applied in order, yielding a warm engine whose state
// is the chain's fold. The engine adopts every part's regions — do not
// reuse base or deltas afterwards.
func RestoreChain(cfg Config, base *Snapshot, deltas []*Delta) (*ATM, error) {
	a, err := Restore(cfg, base)
	if err != nil {
		return nil, err
	}
	for i, d := range deltas {
		if err := a.ApplyDelta(d); err != nil {
			return nil, fmt.Errorf("delta %d: %w", i, err)
		}
	}
	return a, nil
}

// installSection adopts a restored section into a freshly created
// typeState. Called from stateSlow under typeMu, before the state is
// published, so no task of the type can race the installation: the
// first OnReady already sees the warm level and the warm THT. The
// return value reports whether the metadata installed verbatim — false
// means the installed state diverged from the snapshot (clamped level,
// or an excluded steady type demoted to training) and the caller must
// mark the type dirty for the next delta save.
func (a *ATM) installSection(id int, ts *typeState, sec *TypeSnapshot) bool {
	level := sec.Level
	if level < sampling.MinPLevel {
		level = sampling.MinPLevel
	}
	if level > sampling.MaxPLevel {
		level = sampling.MaxPLevel
	}
	ph := phaseTraining
	// A type whose cold run excluded chaotic output regions re-trains:
	// the exclusion set is per-process region identity and cannot be
	// restored, and steady-state memoization without it would approximate
	// exactly the outputs the cold run proved unstable.
	if sec.Steady && sec.Excluded == 0 {
		ph = phaseSteady
	}
	ts.phaseLevel.Store(packPhaseLevel(ph, level))
	if ph == phaseTraining && !sec.Steady {
		// Resume an interrupted training run where it left off. A
		// formerly-steady type demoted by the exclusion caveat instead
		// re-trains from zero successes, so it cannot flip back to
		// steady before its exclusion set has had a chance to rebuild.
		ts.successes = sec.Successes
	}
	for _, es := range sec.Entries {
		if es.Level < sampling.MinPLevel || es.Level > sampling.MaxPLevel {
			continue
		}
		if es.Tombstone {
			// A chained delta recorded an eviction: replay the removal.
			// Remove neither logs nor counts an eviction — the removal
			// was already persisted by the chain being restored.
			a.tht.Remove(id, es.Key, es.Level, es.Provider)
			continue
		}
		// Restored entries bypass the delta insert log: the
		// snapshot chain that produced them already persists them.
		a.tht.InsertRestored(&Entry{
			TypeID:     id,
			Key:        es.Key,
			Level:      es.Level,
			ProviderID: es.Provider,
			Outs:       es.Outs,
		})
		a.restored.Add(1)
	}
	demoted := sec.Steady && sec.Excluded != 0
	return level == sec.Level && !demoted
}

// RestoredEntries reports how many THT entries have been installed from
// a restored snapshot so far (sections install lazily, when their task
// type first registers).
func (a *ATM) RestoredEntries() int64 { return a.restored.Load() }
