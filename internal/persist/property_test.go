package persist

import (
	"bytes"
	"errors"

	"math/rand"
	"testing"

	"atm/internal/core"
	"atm/internal/region"
)

// This file holds the property suite for the chain-folding operations:
// randomized (seeded, reproducible) snapshots and deltas drive the two
// invariants the persistence contract rests on — Compact is
// replay-equivalent, and MergeSnapshots is order-free.

// randRegion builds a deterministic random region of a random kind.
func randRegion(rng *rand.Rand) region.Region {
	n := 1 + rng.Intn(6)
	switch rng.Intn(4) {
	case 0:
		r := region.NewFloat64(n)
		for i := range r.Data {
			r.Data[i] = rng.NormFloat64()
		}
		return r
	case 1:
		r := region.NewFloat32(n)
		for i := range r.Data {
			r.Data[i] = float32(rng.NormFloat64())
		}
		return r
	case 2:
		r := region.NewInt32(n)
		for i := range r.Data {
			r.Data[i] = rng.Int31()
		}
		return r
	default:
		r := region.NewBytes(n)
		rng.Read(r.Data)
		return r
	}
}

func randEntry(rng *rand.Rand) core.EntrySnapshot {
	e := core.EntrySnapshot{
		Key:      rng.Uint64(),
		Level:    int8(rng.Intn(16)),
		Provider: uint64(rng.Intn(64)), // small range, so shards collide on providers too
	}
	for i := 0; i < 1+rng.Intn(2); i++ {
		e.Outs = append(e.Outs, randRegion(rng))
	}
	return e
}

// typeNames is the shared pool random sections draw from, small enough
// that bases, deltas and shards overlap constantly.
var typeNames = []string{"alpha", "beta", "gamma", "delta", "epsilon"}

func randSnapshot(rng *rand.Rand, fp uint64) *core.Snapshot {
	s := &core.Snapshot{Fingerprint: fp}
	s.IKT.Inserts = int64(rng.Intn(100))
	perm := rng.Perm(len(typeNames))
	nsec := rng.Intn(len(typeNames) + 1)
	for _, ti := range perm[:nsec] {
		sec := core.TypeSnapshot{
			Name:      typeNames[ti],
			Steady:    rng.Intn(2) == 0,
			Level:     rng.Intn(16),
			Successes: rng.Intn(10),
		}
		for i := 0; i < rng.Intn(8); i++ {
			e := randEntry(rng)
			// Dense key space so distinct shards produce colliding
			// (key, level) pairs and exercise the tie-break.
			e.Key = uint64(rng.Intn(10))
			e.Level = int8(rng.Intn(3))
			sec.Entries = append(sec.Entries, e)
		}
		s.Types = append(s.Types, sec)
	}
	return s
}

func randDelta(rng *rand.Rand, fp uint64) *core.Delta {
	d := &core.Delta{Fingerprint: fp}
	perm := rng.Perm(len(typeNames))
	ntypes := 1 + rng.Intn(len(typeNames))
	for _, ti := range perm[:ntypes] {
		td := core.TypeDelta{Name: typeNames[ti]}
		if rng.Intn(2) == 0 {
			td.HasMeta = true
			td.Steady = rng.Intn(2) == 0
			td.Level = rng.Intn(16)
			td.Successes = rng.Intn(10)
		}
		d.Types = append(d.Types, td)
	}
	for i := 0; i < rng.Intn(12); i++ {
		d.Entries = append(d.Entries, core.DeltaEntry{
			Type:          rng.Intn(len(d.Types)),
			EntrySnapshot: randEntry(rng),
		})
	}
	return d
}

// TestCompactEquivalentToDeltaReplay pins the compaction property:
// restoring Compact(base, d1..dn) yields bit-identical engine state to
// restoring base and replaying the chain with ApplyDelta — verified by
// re-snapshotting both engines and comparing encoded bytes.
func TestCompactEquivalentToDeltaReplay(t *testing.T) {
	for seed := int64(0); seed < 32; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := core.Config{Mode: core.ModeStatic, Seed: uint64(seed)}
		fp := core.Fingerprint(cfg)
		base := randSnapshot(rng, fp)
		var deltas []*core.Delta
		for i := 0; i < 1+rng.Intn(4); i++ {
			deltas = append(deltas, randDelta(rng, fp))
		}
		// The engines adopt their snapshots, so each side gets its own
		// decoded copy of the same bytes.
		data, err := MarshalChain(base, deltas)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		snapshotOf := func(build func(b *core.Snapshot, ds []*core.Delta) (*core.ATM, error)) []byte {
			t.Helper()
			b, ds, err := UnmarshalChain(data)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			engine, err := build(b, ds)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			snap, err := engine.Snapshot()
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			enc, err := MarshalChain(snap, nil)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return enc
		}

		replayed := snapshotOf(func(b *core.Snapshot, ds []*core.Delta) (*core.ATM, error) {
			engine, err := core.Restore(cfg, b)
			if err != nil {
				return nil, err
			}
			for _, d := range ds {
				if err := engine.ApplyDelta(d); err != nil {
					return nil, err
				}
			}
			return engine, nil
		})
		compacted := snapshotOf(func(b *core.Snapshot, ds []*core.Delta) (*core.ATM, error) {
			full, err := Compact(b, ds...)
			if err != nil {
				return nil, err
			}
			return core.Restore(cfg, full)
		})
		if !bytes.Equal(replayed, compacted) {
			t.Fatalf("seed %d: compacted state diverges from replayed chain", seed)
		}
	}
}

// TestCompactPreservesDuplicateInserts pins the no-dedup rule: a key
// re-inserted by a later delta appears twice after compaction, exactly
// as replay would insert it twice (collapsing it would change bucket
// occupancy and therefore eviction order on restore).
func TestCompactPreservesDuplicateInserts(t *testing.T) {
	cfg := core.Config{Mode: core.ModeStatic}
	fp := core.Fingerprint(cfg)
	e := core.EntrySnapshot{Key: 42, Level: 15, Provider: 1, Outs: []region.Region{region.NewFloat64(2)}}
	base := &core.Snapshot{Fingerprint: fp, Types: []core.TypeSnapshot{{Name: "alpha", Entries: []core.EntrySnapshot{e}}}}
	d := &core.Delta{Fingerprint: fp,
		Types:   []core.TypeDelta{{Name: "alpha"}},
		Entries: []core.DeltaEntry{{Type: 0, EntrySnapshot: e}},
	}
	full, err := Compact(base, d)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(full.Types[0].Entries); n != 2 {
		t.Fatalf("compaction must preserve duplicate inserts, got %d entries", n)
	}
}

func TestCompactRequiresBaseAndMatchingFingerprints(t *testing.T) {
	if _, err := Compact(nil); err == nil {
		t.Fatal("compact without a base must fail")
	}
	cfg := core.Config{Mode: core.ModeStatic}
	base := &core.Snapshot{Fingerprint: core.Fingerprint(cfg)}
	skew := &core.Delta{Fingerprint: base.Fingerprint + 1}
	if _, err := Compact(base, skew); !errors.Is(err, core.ErrSnapshotConfig) {
		t.Fatalf("fingerprint skew: %v", err)
	}
}

// TestMergeSnapshotsDeterministicUnderShardReordering pins the merge
// determinism property: any permutation of the shard list encodes to
// the same bytes, because the winner rule (greater provider id, then
// lexicographically greater encoded body) and the metadata fold
// (max by steadiness/level/successes) are order-free and
// the output is canonically sorted.
func TestMergeSnapshotsDeterministicUnderShardReordering(t *testing.T) {
	for seed := int64(0); seed < 16; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		cfg := core.Config{Mode: core.ModeDynamic, Seed: uint64(seed)}
		fp := core.Fingerprint(cfg)
		shards := []*core.Snapshot{
			randSnapshot(rng, fp), randSnapshot(rng, fp), randSnapshot(rng, fp),
		}
		var want []byte
		permute(len(shards), func(perm []int) {
			ordered := make([]*core.Snapshot, len(perm))
			for i, p := range perm {
				ordered[i] = shards[p]
			}
			merged, err := MergeSnapshots(ordered...)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			enc, err := MarshalChain(merged, nil)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if want == nil {
				want = enc
			} else if !bytes.Equal(want, enc) {
				t.Fatalf("seed %d: merge order %v produced different bytes", seed, perm)
			}
		})
	}
}

// permute calls fn with every permutation of [0, n).
func permute(n int, fn func(perm []int)) {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			fn(perm)
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
}

// TestMergeTieBreakRule pins the documented last-writer-wins rule so a
// future change to it is a deliberate format decision, not drift:
// greater provider id wins; equal providers fall back to the
// lexicographically greater encoded entry body.
func TestMergeTieBreakRule(t *testing.T) {
	cfg := core.Config{Mode: core.ModeStatic}
	fp := core.Fingerprint(cfg)
	mk := func(provider uint64, payload float64) *core.Snapshot {
		out := region.NewFloat64(1)
		out.Data[0] = payload
		return &core.Snapshot{Fingerprint: fp, Types: []core.TypeSnapshot{{
			Name:    "alpha",
			Entries: []core.EntrySnapshot{{Key: 7, Level: 15, Provider: provider, Outs: []region.Region{out}}},
		}}}
	}

	merged, err := MergeSnapshots(mk(5, 1.0), mk(9, 2.0))
	if err != nil {
		t.Fatal(err)
	}
	if got := merged.Types[0].Entries[0].Provider; got != 9 {
		t.Fatalf("greater provider id must win, got %d", got)
	}

	// Equal providers: the lexicographically greater encoded body wins,
	// in either argument order.
	lo, hi := mk(5, 1.0), mk(5, 2.0)
	var eLo, eHi []byte
	if eLo, err = MarshalChain(lo, nil); err != nil {
		t.Fatal(err)
	}
	if eHi, err = MarshalChain(hi, nil); err != nil {
		t.Fatal(err)
	}
	wantPayload := 2.0
	if bytes.Compare(eLo, eHi) > 0 {
		wantPayload = 1.0
	}
	for _, pair := range [][2]*core.Snapshot{{lo, hi}, {hi, lo}} {
		merged, err := MergeSnapshots(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		got := merged.Types[0].Entries[0].Outs[0].(*region.Float64).Data[0]
		if got != wantPayload {
			t.Fatalf("body tie-break must pick payload %v independent of order, got %v", wantPayload, got)
		}
	}
}

func TestMergeMetadataFold(t *testing.T) {
	cfg := core.Config{Mode: core.ModeDynamic}
	fp := core.Fingerprint(cfg)
	training := &core.Snapshot{Fingerprint: fp, Types: []core.TypeSnapshot{{
		Name: "alpha", Steady: false, Level: 9, Successes: 7,
	}}}
	steady := &core.Snapshot{Fingerprint: fp, Types: []core.TypeSnapshot{{
		Name: "alpha", Steady: true, Level: 4, Successes: 0,
	}}}
	merged, err := MergeSnapshots(training, steady)
	if err != nil {
		t.Fatal(err)
	}
	sec := merged.Types[0]
	if !sec.Steady || sec.Level != 4 {
		t.Fatalf("steady shard must dominate the fold: %+v", sec)
	}
}

func TestMergeSnapshotsFingerprintMismatch(t *testing.T) {
	a := &core.Snapshot{Fingerprint: 1}
	b := &core.Snapshot{Fingerprint: 2}
	if _, err := MergeSnapshots(a, b); !errors.Is(err, core.ErrSnapshotConfig) {
		t.Fatalf("want ErrSnapshotConfig, got %v", err)
	}
	if _, err := MergeSnapshots(); err == nil {
		t.Fatal("merge of zero snapshots must fail")
	}
}

// TestMergedSnapshotRestores closes the loop: a merge of two real
// shard runs (disjoint workloads) restores into one engine that serves
// both shards' state.
func TestMergedSnapshotRestores(t *testing.T) {
	shardA := buildSnapshot(t) // types "double" + "negate"
	shardB := buildSnapshot(t) // identical workload: full overlap
	merged, err := MergeSnapshots(shardA, shardB)
	if err != nil {
		t.Fatal(err)
	}
	var aEntries, mEntries int
	for _, sec := range shardA.Types {
		aEntries += len(sec.Entries)
	}
	for _, sec := range merged.Types {
		mEntries += len(sec.Entries)
	}
	if mEntries != aEntries {
		t.Fatalf("fully overlapping shards must collapse: %d vs %d entries", mEntries, aEntries)
	}
	cfg := core.Config{Mode: core.ModeStatic, Seed: 7} // buildSnapshot's config
	if _, err := core.Restore(cfg, merged); err != nil {
		t.Fatal(err)
	}
}
