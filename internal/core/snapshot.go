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

// Snapshot is the serializable state of an ATM engine (see
// (*ATM).Snapshot). The regions it references are
// deep copies on the Snapshot() side and are adopted by the engine on
// the Restore() side — do not reuse a Snapshot after passing it to
// Restore.
type Snapshot struct {
	// Fingerprint identifies the Config the state was produced under
	// (see Fingerprint); Restore rejects a mismatch.
	Fingerprint uint64
	// IKT carries the In-flight Key Table's lifetime counters at
	// snapshot time. The table itself holds only tasks still in flight
	// (every provider releases its key at completion, and their inserts
	// are carried by the next delta), so counters are its only content;
	// they are informational and are not replayed by Restore.
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
// type's name: type IDs are assigned per engine in creation order, so
// the name is the only identity stable across processes
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
	Entries   []EntrySnapshot
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
	Provider  uint64
	Outs      []region.Region
	Level     int8
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

// Snapshot extracts the engine's memoization state. It waits for no
// task, on a runtime's workers or a handler (Serve): traffic that races
// the scan is not lost, because each bucket's operation log is trimmed
// only up to where the scan read that bucket, so a racing insert or
// eviction is carried by the next delta. For a snapshot that holds
// every task submitted before it, wait for them first (rt.Wait). The
// returned regions are deep copies: the engine may keep running and
// recycling entries afterwards.
func (a *ATM) Snapshot() (*Snapshot, error) {
	snap, _ := a.snapshot(false)
	return snap, nil
}

// LendSnapshot extracts the state as Snapshot does and lends it to fn
// without copying the entries' payload: snap's regions are the table's
// own, retained and immutable until fn returns, after which snap must
// not be used. Traffic goes on meanwhile — an entry the table evicts
// while fn runs stays intact, and is recycled only once fn is done. It
// is the chain rewrite's form (encode the table, drop it), which saves
// that path a copy of the whole table; a caller that keeps or restores
// the snapshot wants Snapshot. The operation log is trimmed before fn
// runs, whether or not fn succeeds, exactly as LendDelta drains it.
// Sections carried over from a restore (never re-registered) are still
// copies: they may install into the table while fn runs.
func (a *ATM) LendSnapshot(fn func(snap *Snapshot) error) error {
	snap, held := a.snapshot(true)
	err := fn(snap)
	for _, e := range held {
		e.Release()
	}
	return err
}

// snapshot is Snapshot. The table scan only retains entries; their
// outputs are copied out, or with lend set aliased, after the locks are
// dropped, and a lent snapshot comes back with the entries still
// retained for the caller to release. A registered type's section is
// the one its id indexes.
func (a *ATM) snapshot(lend bool) (*Snapshot, []*Entry) {
	snap, held := a.scan()
	// Each section's entry list is sized from the scan, so it is
	// allocated once, at its length.
	counts := make([]int, len(snap.Types))
	for _, e := range held {
		counts[e.TypeID]++
	}
	for i, n := range counts {
		if n > 0 {
			snap.Types[i].Entries = make([]EntrySnapshot, 0, n)
		}
	}
	for _, e := range held {
		outs := e.Outs
		if !lend {
			outs = cloneRegions(outs)
		}
		sec := &snap.Types[e.TypeID]
		sec.Entries = append(sec.Entries, EntrySnapshot{
			Key:      e.Key,
			Level:    e.Level,
			Provider: e.ProviderID,
			Outs:     outs,
		})
	}
	if !lend {
		for _, e := range held {
			e.Release()
		}
		held = nil
	}
	return snap, held
}

// scan reads the metadata, retains every table entry and copies the
// carried sections, under the locks a full snapshot needs, and trims
// the operation log up to the scan. The registered sections come back
// without their entries, which are held, in table order.
func (a *ATM) scan() (snap *Snapshot, held []*Entry) {
	// snapMu excludes every other drain of the operation log between the
	// scan's cuts and the trim that applies them.
	a.snapMu.Lock()
	defer a.snapMu.Unlock()
	// typeMu freezes the registry and the pending sections from the
	// metadata read to the carried sections: no type registers, and no
	// pending section installs into buckets the scan already passed.
	a.typeMu.Lock()
	defer a.typeMu.Unlock()
	snap = &Snapshot{Fingerprint: Fingerprint(a.cfg)}
	if a.ikt != nil {
		// Tasks still in flight are fine: their inserts land after their
		// bucket's scan and stay logged for the next delta.
		snap.IKT.Inserts, snap.IKT.Defers, snap.IKT.Rejected = a.ikt.Counters()
	}
	// Seal the current epoch and read the metadata before the scan, as
	// SnapshotDelta does: a mutation racing this save stamps the next
	// epoch and is carried again by the next delta, and the base never
	// holds metadata newer than its entries.
	cur := a.saveEpoch.Add(1) - 1
	a.registeredSections(snap)
	held = make([]*Entry, 0, a.tht.Entries()+64)
	cuts := a.tht.forEach(func(e *Entry) {
		e.retain() // released by snapshot, or once a lent snapshot is returned
		held = append(held, e)
	})
	a.carrySections(snap)
	// A successful full snapshot supersedes the accumulated delta
	// state: every operation logged before a bucket was scanned is
	// covered by the scan, so those records are dropped and the epoch
	// stays sealed — the next SnapshotDelta carries only what happened
	// after each bucket's visit, even when an insert raced the scan.
	if a.tracking {
		a.tht.trimLog(cuts)
		a.savedThrough = cur
	}
	return snap, held
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
// builds on to make compacted chains shrink). The fold is linear: each
// identity keeps a FIFO of its uncancelled inserts, linked through next.
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
	type identity struct {
		key      uint64
		level    int8
		provider uint64
	}
	type fifo struct{ head, tail int } // head < 0: empty
	live := make(map[identity]fifo, len(ops)-tombs)
	next := make([]int, len(ops))
	cancelled := make([]bool, len(ops))
	kept := len(ops) - tombs
	for i := range ops {
		op := &ops[i]
		id := identity{op.Key, op.Level, op.Provider}
		q, ok := live[id]
		if !op.Tombstone {
			next[i] = -1
			if ok && q.head >= 0 {
				next[q.tail] = i
				q.tail = i
			} else {
				q = fifo{i, i}
			}
			live[id] = q
			continue
		}
		cancelled[i] = true
		if ok && q.head >= 0 {
			cancelled[q.head] = true
			q.head = next[q.head]
			live[id] = q
			kept--
		}
	}
	out := make([]EntrySnapshot, 0, kept)
	for i := range ops {
		if !cancelled[i] {
			out = append(out, ops[i])
		}
	}
	return out
}

// registeredSections appends a section holding the metadata of each
// registered type to snap, in id order, entries to follow. A name has
// one type (typeFor), so no two sections collide. The caller holds
// typeMu.
func (a *ATM) registeredSections(snap *Snapshot) {
	for _, ts := range *a.typeStates.Load() {
		ph, level := ts.load()
		ts.mu.Lock()
		succ := ts.successes
		ts.mu.Unlock()
		snap.Types = append(snap.Types, TypeSnapshot{
			Name:      ts.name,
			Steady:    ph == phaseSteady,
			Level:     level,
			Successes: succ,
		})
	}
}

// carrySections appends the sections restored into this engine whose
// types never re-registered: a sweep alternating workloads must not
// lose the idle workload's warm state. Cloned: the pending map may
// later be installed into the THT, whose recycling mutates entries.
// Pending sections are operation streams — a chained delta may have
// left tombstones — and a full snapshot carries entries only, so the
// ops are folded first (FoldEntryOps replays removals textually, which
// installSection would otherwise do on the ring). The caller holds
// typeMu.
func (a *ATM) carrySections(snap *Snapshot) {
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
// entries inserted) when the matching type registers (typeFor), so
// restore order is independent of type-registration order. The engine adopts
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
// Type. Called from addTypeLocked under typeMu, before the state is
// published, so no task of the type can race the installation: its
// first task already sees the warm level and the warm THT. The
// return value reports whether the metadata installed verbatim — false
// means the installed state diverged from the snapshot (clamped level)
// and the caller must mark the type dirty for the next delta save.
func (a *ATM) installSection(ts *Type, sec *TypeSnapshot) bool {
	level := sec.Level
	if level < sampling.MinPLevel {
		level = sampling.MinPLevel
	}
	if level > sampling.MaxPLevel {
		level = sampling.MaxPLevel
	}
	if sec.Steady {
		ts.phaseLevel.Store(packPhaseLevel(phaseSteady, level))
	} else {
		// Resume an interrupted training run where it left off.
		ts.phaseLevel.Store(packPhaseLevel(phaseTraining, level))
		ts.successes = sec.Successes
	}
	for _, es := range sec.Entries {
		if es.Level < sampling.MinPLevel || es.Level > sampling.MaxPLevel {
			continue
		}
		if es.Tombstone {
			// A chained delta recorded an eviction: replay the removal.
			// Remove neither logs nor counts an eviction — the removal
			// was already persisted by the chain being restored — but
			// the entry it takes out is no longer a restored one.
			if a.tht.Remove(ts.id, es.Key, es.Level, es.Provider) {
				a.restored.Add(-1)
			}
			continue
		}
		// Restored entries bypass the delta insert log: the
		// snapshot chain that produced them already persists them.
		// Under a budget, admission may reject the entry or evict
		// residents for it; only what the table keeps is counted.
		a.restored.Add(int64(a.tht.InsertRestored(&Entry{
			TypeID:     ts.id,
			Key:        es.Key,
			Level:      es.Level,
			ProviderID: es.Provider,
			Outs:       es.Outs,
			pool:       &ts.entries,
		})))
	}
	return level == sec.Level
}

// RestoredEntries reports how many THT entries have been installed from
// a restored snapshot so far (a section installs when its task type
// registers): the inserts the table kept, less the residents
// each one evicted under a budget or displaced from its bucket's ring,
// less those a replayed tombstone removed again. On a table nothing
// else writes during the install it equals the resident entry count.
func (a *ATM) RestoredEntries() int64 { return a.restored.Load() }
