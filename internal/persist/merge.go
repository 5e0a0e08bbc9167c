package persist

import (
	"bytes"
	"fmt"
	"sort"

	"atm/internal/core"
)

// This file implements the two chain-folding operations of ROADMAP's
// "Snapshot compaction/merge":
//
//   - Compact folds one engine's chain (base + ordered deltas) back
//     into a single full snapshot, preserving replay semantics.
//   - MergeSnapshots combines full snapshots from parallel shards into
//     one, last-writer-wins by key with a deterministic tie-break.
//
// Both are pure functions over decoded snapshots; snapshotctl exposes
// them on files.

// Compact folds a delta chain into one full snapshot: metadata updates
// apply in order, each delta's operations append to its type's section,
// and finally each section's insert/tombstone stream is folded with
// core.FoldEntryOps — every tombstone cancels the oldest uncancelled
// matching insert, exactly what replaying the tombstone against the
// live table would have removed. Restoring the compacted snapshot
// therefore replays the same per-type sequence as Restore(base)
// followed by ApplyDelta of each delta in order — bit-identical engine
// state either way (the property pinned by
// TestCompactEquivalentToDeltaReplay). Surviving duplicate inserts are
// deliberately NOT deduplicated: a key re-inserted by training appears
// twice in the table too, and collapsing it would change bucket
// occupancy and therefore eviction. Because evicted entries' payloads
// are cancelled away, a compacted chain that saw evictions is strictly
// smaller than the chain it folds. The result shares the inputs'
// regions; do not mutate them afterwards.
func Compact(base *core.Snapshot, deltas ...*core.Delta) (*core.Snapshot, error) {
	if base == nil {
		return nil, fmt.Errorf("persist: compact without a base snapshot")
	}
	out := &core.Snapshot{Fingerprint: base.Fingerprint, IKT: base.IKT}
	idx := make(map[string]int, len(base.Types))
	out.Types = make([]core.TypeSnapshot, len(base.Types))
	for i := range base.Types {
		sec := base.Types[i] // copy the struct; share the regions
		// Clip so appends below reallocate instead of scribbling into
		// the base's backing array (compacting the same base twice must
		// not alias).
		sec.Entries = sec.Entries[:len(sec.Entries):len(sec.Entries)]
		if _, dup := idx[sec.Name]; dup {
			return nil, fmt.Errorf("%w: duplicate section for type %q", ErrCorrupt, sec.Name)
		}
		idx[sec.Name] = i
		out.Types[i] = sec
	}
	section := func(name string) *core.TypeSnapshot {
		i, ok := idx[name]
		if !ok {
			i = len(out.Types)
			idx[name] = i
			out.Types = append(out.Types, core.TypeSnapshot{Name: name})
		}
		return &out.Types[i]
	}
	for di, d := range deltas {
		if d.Fingerprint != base.Fingerprint {
			return nil, fmt.Errorf("%w: delta %d fingerprint %#016x, base %#016x",
				core.ErrSnapshotConfig, di, d.Fingerprint, base.Fingerprint)
		}
		for _, td := range d.Types {
			sec := section(td.Name)
			if td.HasMeta {
				sec.Steady = td.Steady
				sec.Level = td.Level
				sec.Successes = td.Successes
			}
		}
		for i := range d.Entries {
			de := &d.Entries[i]
			if de.Type < 0 || de.Type >= len(d.Types) {
				return nil, fmt.Errorf("%w: delta %d entry %d references type %d of %d",
					ErrCorrupt, di, i, de.Type, len(d.Types))
			}
			sec := section(d.Types[de.Type].Name)
			sec.Entries = append(sec.Entries, de.EntrySnapshot)
		}
	}
	// Fold the accumulated operation streams: tombstones cancel their
	// targets (base entries included — a delta may evict state the base
	// restored), leaving each section a pure insert list, which is what
	// the full-snapshot encoding requires.
	for i := range out.Types {
		out.Types[i].Entries = core.FoldEntryOps(out.Types[i].Entries)
	}
	return out, nil
}

// MergeSnapshots combines full snapshots from parallel shards of a
// sweep into one warm-start snapshot. All inputs must share one config
// fingerprint (core.ErrSnapshotConfig otherwise). Sections merge by
// type name; within a section, entries merge last-writer-wins by
// (key, level) under a pinned, order-free rule, so the result is
// byte-identical no matter how the shards are ordered (the property
// pinned by TestMergeSnapshotsDeterministicUnderShardReordering):
//
//   - the entry with the greater provider task id wins ("last writer":
//     task ids grow monotonically within a shard run);
//   - equal provider ids tie-break on the lexicographically greater
//     encoded entry body, which depends only on the entries' contents.
//
// Section metadata merges to the most-trained shard — maximum by
// (steady, level, successes) lexicographically. Output sections are
// sorted by name and entries by (key, level): merging is canonical, not
// replay-ordered — unlike Compact it collapses duplicate keys, which is
// the point of merging shards that learned overlapping state. The
// result shares the inputs' regions; do not mutate them afterwards.
func MergeSnapshots(snaps ...*core.Snapshot) (*core.Snapshot, error) {
	if len(snaps) == 0 {
		return nil, fmt.Errorf("persist: merge of zero snapshots")
	}
	out := &core.Snapshot{Fingerprint: snaps[0].Fingerprint}
	type entryKey struct {
		key   uint64
		level int8
	}
	type mergedSection struct {
		meta    core.TypeSnapshot
		entries map[entryKey]*core.EntrySnapshot
	}
	sections := map[string]*mergedSection{}
	var scratchA, scratchB []byte
	for si, s := range snaps {
		if s.Fingerprint != out.Fingerprint {
			return nil, fmt.Errorf("%w: snapshot %d fingerprint %#016x, snapshot 0 %#016x",
				core.ErrSnapshotConfig, si, s.Fingerprint, out.Fingerprint)
		}
		out.IKT.Inserts += s.IKT.Inserts
		out.IKT.Defers += s.IKT.Defers
		out.IKT.Rejected += s.IKT.Rejected
		for ti := range s.Types {
			sec := &s.Types[ti]
			m := sections[sec.Name]
			if m == nil {
				m = &mergedSection{
					meta:    core.TypeSnapshot{Name: sec.Name, Steady: sec.Steady, Level: sec.Level, Successes: sec.Successes},
					entries: map[entryKey]*core.EntrySnapshot{},
				}
				sections[sec.Name] = m
			} else if moreTrained(sec, &m.meta) {
				m.meta.Steady, m.meta.Level, m.meta.Successes = sec.Steady, sec.Level, sec.Successes
			}
			for ei := range sec.Entries {
				e := &sec.Entries[ei]
				if e.Tombstone {
					// Merging is defined over full snapshots, whose
					// sections are pure insert lists; fold a chain with
					// Compact before merging it.
					return nil, fmt.Errorf("%w: snapshot %d type %q entry %d is a tombstone",
						ErrCorrupt, si, sec.Name, ei)
				}
				k := entryKey{key: e.Key, level: e.Level}
				cur, ok := m.entries[k]
				if !ok {
					m.entries[k] = e
					continue
				}
				var win bool
				win, scratchA, scratchB = entryWins(e, cur, scratchA, scratchB)
				if win {
					m.entries[k] = e
				}
			}
		}
	}
	names := make([]string, 0, len(sections))
	for name := range sections {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := sections[name]
		sec := m.meta
		keys := make([]entryKey, 0, len(m.entries))
		for k := range m.entries {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].key != keys[j].key {
				return keys[i].key < keys[j].key
			}
			return keys[i].level < keys[j].level
		})
		sec.Entries = make([]core.EntrySnapshot, 0, len(keys))
		for _, k := range keys {
			sec.Entries = append(sec.Entries, *m.entries[k])
		}
		out.Types = append(out.Types, sec)
	}
	return out, nil
}

// moreTrained reports whether section a's adaptive metadata dominates
// b's under the merge order: (steady, level, successes) lexicographic.
func moreTrained(a, b *core.TypeSnapshot) bool {
	if a.Steady != b.Steady {
		return a.Steady
	}
	if a.Level != b.Level {
		return a.Level > b.Level
	}
	return a.Successes > b.Successes
}

// entryWins decides the last-writer-wins race between two entries with
// the same (key, level): greater provider id first, then the
// lexicographically greater encoded body. Both comparisons are
// order-free, which is what makes MergeSnapshots deterministic under
// shard reordering. The scratch buffers are threaded through to avoid
// re-allocating per comparison.
func entryWins(a, b *core.EntrySnapshot, scratchA, scratchB []byte) (bool, []byte, []byte) {
	if a.Provider != b.Provider {
		return a.Provider > b.Provider, scratchA, scratchB
	}
	ea, errA := appendEntryBody(scratchA[:0], a)
	eb, errB := appendEntryBody(scratchB[:0], b)
	if errA != nil || errB != nil {
		// Unencodable entries cannot come from a decoded snapshot; keep
		// the incumbent deterministically.
		return false, scratchA, scratchB
	}
	return bytes.Compare(ea, eb) > 0, ea, eb
}
