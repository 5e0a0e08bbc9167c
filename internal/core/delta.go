package core

import (
	"errors"
	"fmt"
	"slices"
)

// This file implements incremental (delta) snapshots, the persistence
// half of ROADMAP's "Snapshot compaction/merge": a long-lived service
// or a sharded sweep should not re-serialize the whole Task History
// Table on every save. With delta tracking enabled, the engine stamps
// every metadata mutation with a save epoch (Type.dirtyEpoch)
// and keeps an ordered THT insert log; SnapshotDelta extracts only the
// state changed since the previous save, waiting for no task. The
// restore side chains deltas onto a full
// base snapshot with ApplyDelta; package persist serializes the chain
// (v2 record-stream format) and provides Compact/MergeSnapshots.

// Typed delta errors; test with errors.Is.
var (
	// ErrNotTracking is returned by SnapshotDelta when
	// EnableDeltaTracking was never called: without the insert log
	// there is nothing sound to extract.
	ErrNotTracking = errors.New("core: delta snapshot without EnableDeltaTracking")
	// ErrDeltaLive is returned by ApplyDelta when a referenced task
	// type has already registered in this engine: its section was
	// installed at registration, so a late delta could no longer be
	// merged into it. Chain deltas immediately after Restore, before
	// the engine runs tasks.
	ErrDeltaLive = errors.New("core: ApplyDelta after the named task type registered")
)

// Delta is the serializable difference between two saves of one
// engine: the per-type metadata that changed plus every THT insert
// performed since the previous save, in insert order. Like Snapshot,
// its regions are deep copies on the SnapshotDelta side and are
// adopted on the ApplyDelta side — do not reuse a Delta after applying
// it.
type Delta struct {
	// Fingerprint identifies the Config (see Fingerprint); it must
	// match the base snapshot's.
	Fingerprint uint64
	// Types is the delta's type table, in capture order. Entries
	// reference their type by index into it. A TypeDelta with HasMeta
	// carries changed adaptive metadata; without it the type appears
	// only because Entries references it.
	Types []TypeDelta
	// Entries are the THT operations since the previous save —
	// inserts and eviction tombstones (EntrySnapshot.Tombstone) in one
	// ordered stream — preserving per-bucket operation order (the order
	// replay needs to rebuild the same FIFO ring state). Every eviction
	// the live table performed while logging, whether ring replacement
	// or budget pressure, appears as an explicit tombstone, so replayed
	// occupancy mirrors the live table step by step.
	Entries []DeltaEntry
}

// TypeDelta is one task type's row in a delta's type table.
type TypeDelta struct {
	Name string
	// HasMeta marks a metadata update; the fields below are only
	// meaningful (and only serialized non-zero) when it is set.
	HasMeta   bool
	Steady    bool
	Level     int
	Successes int
}

// DeltaEntry is one logged THT insert: Type indexes Delta.Types.
type DeltaEntry struct {
	Type int
	EntrySnapshot
}

// EnableDeltaTracking switches the engine into incremental-snapshot
// mode: THT inserts are logged (retained, not copied — the clone cost
// is paid at save time, proportional to the delta, not to the table)
// and metadata mutations are epoch-stamped. Call it before the engine
// runs tasks; idempotent. Tracking costs one atomic load per insert
// when saves are rare, plus the log's retained entries between saves.
func (a *ATM) EnableDeltaTracking() {
	a.snapMu.Lock()
	defer a.snapMu.Unlock()
	if a.tracking {
		return
	}
	a.tracking = true
	a.tht.SetLogging(true)
}

// DisableDeltaTracking turns incremental-snapshot mode back off and
// releases every entry the insert log retains. Callers that stop
// saving (e.g. after a persistent save error) should disable tracking
// too, so the log stops pinning evicted entries' buffers for a drain
// that will never come.
func (a *ATM) DisableDeltaTracking() {
	a.snapMu.Lock()
	defer a.snapMu.Unlock()
	if !a.tracking {
		return
	}
	a.tracking = false
	a.tht.SetLogging(false)
}

// DeltaTracking reports whether EnableDeltaTracking was called.
func (a *ATM) DeltaTracking() bool {
	a.snapMu.Lock()
	defer a.snapMu.Unlock()
	return a.tracking
}

// SnapshotDelta extracts the state changed since the previous save
// (SnapshotDelta or Snapshot) and seals the current save epoch. Like
// Snapshot it waits for no task, on a runtime's workers or a handler:
// an insert that lands after its bucket's drain is carried by the next
// delta, since the insert log partitions inserts exactly across saves,
// and a metadata mutation racing the save re-stamps the new epoch, so
// nothing is lost or saved twice. For a delta that holds every task
// submitted before it, wait for them first (rt.Wait); for a chain that
// is complete at a given instant, take the final delta after traffic
// stops (the harness does).
func (a *ATM) SnapshotDelta() (*Delta, error) {
	d, _, err := a.snapshotDelta(false)
	return d, err
}

// LendDelta extracts the delta as SnapshotDelta does and lends it to fn
// without copying the logged entries' payload: d's regions are the
// table's own, retained and immutable until fn returns, after which d
// must not be used. It is the periodic save's form — encode the delta,
// drop it — and saves that path a copy of everything inserted since the
// last save; a caller that keeps or applies the delta wants
// SnapshotDelta. The epoch is sealed and the log drained whether or not
// fn succeeds, exactly as when a save fails after SnapshotDelta.
func (a *ATM) LendDelta(fn func(d *Delta) error) error {
	d, held, err := a.snapshotDelta(true)
	if err != nil {
		return err
	}
	err = fn(d)
	for _, e := range held {
		e.Release()
	}
	return err
}

// snapshotDelta is SnapshotDelta. With lend set the delta's regions alias
// the logged entries' instead of cloning them, and the inserted entries
// come back still holding the log's references for the caller to
// release.
func (a *ATM) snapshotDelta(lend bool) (*Delta, []*Entry, error) {
	a.snapMu.Lock()
	defer a.snapMu.Unlock()
	if !a.tracking {
		return nil, nil, ErrNotTracking
	}
	// Seal the current epoch first: a metadata mutation that runs after
	// this bump stamps the new epoch and is picked up by the next save
	// even if this scan misses it (the stamp happens under ts.mu, which
	// the scan below also takes).
	cur := a.saveEpoch.Add(1) - 1
	d := &Delta{Fingerprint: Fingerprint(a.cfg)}

	states := *a.typeStates.Load()
	row := make(map[int]int) // type id → its row in d.Types
	for _, ts := range states {
		ts.mu.Lock()
		dirty := ts.dirtyEpoch > a.savedThrough
		ph, level := ts.load()
		succ := ts.successes
		ts.mu.Unlock()
		if !dirty {
			continue
		}
		row[ts.id] = len(d.Types)
		d.Types = append(d.Types, TypeDelta{
			Name:      ts.name,
			HasMeta:   true,
			Steady:    ph == phaseSteady,
			Level:     level,
			Successes: succ,
		})
	}

	if a.deltaScanned != nil {
		a.deltaScanned()
	}

	// Drain the insert log after the metadata scan: an insert landing
	// between the two is saved now and its (possibly newer) metadata by
	// the next save — never the reverse, so a restored chain cannot hold
	// metadata for entries it does not have. The records go straight
	// into the delta, which is sized from the logs' length, with no
	// intermediate copy of the log.
	n := a.tht.logLen()
	d.Entries = make([]DeltaEntry, 0, n)
	held := make([]*Entry, 0, n)
	a.tht.drainLog(func(rec logRec) {
		if rec.typeID >= len(states) {
			// A type made since the scan above may already have logged
			// operations: resolve them against the registry as it is
			// now, which only ever grows at its end. Such a type's
			// entries ship in this delta under a meta-less row and its
			// metadata follows with the next save, per the invariant
			// above.
			states = *a.typeStates.Load()
		}
		ti, ok := row[rec.typeID]
		if !ok {
			ti = len(d.Types)
			row[rec.typeID] = ti
			d.Types = append(d.Types, TypeDelta{Name: states[rec.typeID].name})
		}
		de := DeltaEntry{Type: ti, EntrySnapshot: EntrySnapshot{
			Key:       rec.key,
			Level:     rec.level,
			Provider:  rec.provider,
			Tombstone: rec.e == nil, // an eviction: identity only, no payload
		}}
		if rec.e != nil {
			de.Outs = rec.e.Outs
			held = append(held, rec.e)
		}
		d.Entries = append(d.Entries, de)
	})
	a.savedThrough = cur
	if !lend {
		// Once released an entry may be recycled by a concurrent insert
		// (no save waits for the engine's traffic): copy the outputs first. The
		// identities came from the records, not from the entries.
		for i := range d.Entries {
			if e := &d.Entries[i]; !e.Tombstone {
				e.Outs = cloneRegions(e.Outs)
			}
		}
		for _, e := range held {
			e.Release()
		}
		held = nil
	}
	return d, held, nil
}

// ApplyDelta chains a delta onto a restored engine: metadata updates
// replace the pending sections' metadata and logged inserts append to
// their entry lists, so when a type registers, installSection replays
// base entries followed by delta entries in original insert order.
// Call it on a freshly Restored engine, before the referenced types
// register (ErrDeltaLive otherwise); apply deltas in chain order. The
// engine adopts the delta's regions — do not reuse the delta.
func (a *ATM) ApplyDelta(d *Delta) error {
	if want := Fingerprint(a.cfg); d.Fingerprint != want {
		return fmt.Errorf("%w: delta %#016x, config %#016x", ErrSnapshotConfig, d.Fingerprint, want)
	}
	a.typeMu.Lock()
	defer a.typeMu.Unlock()
	// Validate everything before mutating anything: a rejected delta
	// must leave the pending sections untouched, not half-applied.
	seen := make(map[string]bool, len(d.Types))
	for _, td := range d.Types {
		if seen[td.Name] {
			return fmt.Errorf("core: duplicate delta section for type %q", td.Name)
		}
		seen[td.Name] = true
		if a.byName[td.Name] != nil {
			return fmt.Errorf("%w: type %q", ErrDeltaLive, td.Name)
		}
	}
	for i := range d.Entries {
		if t := d.Entries[i].Type; t < 0 || t >= len(d.Types) {
			return fmt.Errorf("core: delta entry %d references type %d of %d", i, t, len(d.Types))
		}
	}
	if a.pending == nil {
		a.pending = make(map[string]*TypeSnapshot, len(d.Types))
	}
	// Each pending section grows once, by its type's operation count,
	// rather than by append per operation.
	secs := make([]*TypeSnapshot, len(d.Types))
	grow := make([]int, len(d.Types))
	for i := range d.Entries {
		grow[d.Entries[i].Type]++
	}
	for ti, td := range d.Types {
		sec := a.pending[td.Name]
		if sec == nil {
			sec = &TypeSnapshot{Name: td.Name}
			a.pending[td.Name] = sec
		}
		if td.HasMeta {
			sec.Steady = td.Steady
			sec.Level = td.Level
			sec.Successes = td.Successes
		}
		if grow[ti] > 0 {
			sec.Entries = slices.Grow(sec.Entries, grow[ti])
		}
		secs[ti] = sec
	}
	for i := range d.Entries {
		de := &d.Entries[i]
		secs[de.Type].Entries = append(secs[de.Type].Entries, de.EntrySnapshot)
	}
	return nil
}

// DeltaStats summarizes a delta for reports and the snapshotctl
// inspect subcommand. entries counts insert operations only; use
// Tombstones for the eviction records.
func (d *Delta) Stats() (types, metas, entries int) {
	for _, td := range d.Types {
		if td.HasMeta {
			metas++
		}
	}
	return len(d.Types), metas, len(d.Entries) - d.Tombstones()
}

// Tombstones counts the delta's eviction records.
func (d *Delta) Tombstones() int {
	n := 0
	for i := range d.Entries {
		if d.Entries[i].Tombstone {
			n++
		}
	}
	return n
}
