package persist

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"atm/internal/core"
	"atm/internal/region"
	"atm/internal/taskrt"
)

// evictEntryBytes is the accounting cost of one doubler entry: 8
// float64 outputs plus the key/provider/header charge.
const evictEntryBytes = 8*8 + 24

func evictCfg() core.Config {
	return core.Config{
		Mode:           core.ModeStatic,
		Seed:           7,
		THTBudgetBytes: 6 * evictEntryBytes,
	}
}

// buildEvictChain drives a tracked engine with ONE task type under a
// tiny THT budget, so the deltas interleave inserts with budget-eviction
// tombstones. It returns the chain plus the live engine's final full
// snapshot (IKT counters zeroed — they are informational, runtime-side
// state that Restore deliberately does not replay).
func buildEvictChain(t testing.TB) (base *core.Snapshot, deltas []*core.Delta, live *core.Snapshot) {
	t.Helper()
	memo := core.New(evictCfg())
	memo.EnableDeltaTracking()
	base, err := memo.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rt := taskrt.New(taskrt.Config{Workers: 2, Memoizer: memo})
	double := rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: func(task *taskrt.Task) {
		in, out := task.Float64s(0), task.Float64s(1)
		for i := range in {
			out[i] = 2 * in[i]
		}
	}})
	submit := func(v int) {
		in := region.NewFloat64(8)
		for i := range in.Data {
			in.Data[i] = float64(v*10 + i)
		}
		rt.Submit(double, taskrt.In(in), taskrt.Out(region.NewFloat64(8)))
	}
	for v := 0; v < 8; v++ {
		submit(v)
	}
	rt.Wait()
	d1, err := memo.SnapshotDelta()
	if err != nil {
		t.Fatal(err)
	}
	for v := 8; v < 16; v++ {
		submit(v)
	}
	rt.Wait()
	d2, err := memo.SnapshotDelta()
	if err != nil {
		t.Fatal(err)
	}
	live, err = memo.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rt.Close()
	live.IKT = core.IKTCounters{}
	deltas = []*core.Delta{d1, d2}
	if d1.Tombstones()+d2.Tombstones() == 0 {
		t.Fatal("workload must overflow the budget and record tombstones")
	}
	return base, deltas, live
}

// claimAndSnapshot registers the "double" type on a restored engine —
// installing its carried section into the THT, inserts and tombstones
// replayed in order — and snapshots the resulting live table.
func claimAndSnapshot(t *testing.T, memo *core.ATM) (*core.Snapshot, error) {
	t.Helper()
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo})
	defer rt.Close()
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: func(task *taskrt.Task) {}})
	memo.ChosenLevel(tt) // first engine touch claims the carried section into the THT
	snap, err := memo.Snapshot()
	if err != nil {
		return nil, err
	}
	snap.IKT = core.IKTCounters{}
	return snap, nil
}

// TestEvictingChainRoundTrip pins the tombstone wire format: a chain
// whose deltas carry eviction tombstones round-trips through
// MarshalChain/UnmarshalChain content-identically and canonically
// (encode(decode(b)) == b), and the tombstone count survives.
func TestEvictingChainRoundTrip(t *testing.T) {
	base, deltas, _ := buildEvictChain(t)
	data, err := MarshalChain(base, deltas)
	if err != nil {
		t.Fatal(err)
	}
	gotBase, gotDeltas, err := UnmarshalChain(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotBase, base) {
		t.Fatal("base does not round-trip")
	}
	if !reflect.DeepEqual(gotDeltas, deltas) {
		t.Fatal("tombstone-bearing deltas do not round-trip")
	}
	wantTombs := deltas[0].Tombstones() + deltas[1].Tombstones()
	if got := gotDeltas[0].Tombstones() + gotDeltas[1].Tombstones(); got != wantTombs {
		t.Fatalf("decoded %d tombstones, want %d", got, wantTombs)
	}
	reenc, err := MarshalChain(gotBase, gotDeltas)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reenc, data) {
		t.Fatal("tombstone chain re-encode is not canonical")
	}
}

// TestEvictingChainCompactRestore is the end-to-end acceptance path:
// cold run under a tiny budget → evictions → delta chain → restore
// reproduces the live table bit-identically, and Compact folds the
// insert/tombstone pairs into a strictly smaller file that restores to
// the same table.
func TestEvictingChainCompactRestore(t *testing.T) {
	base, deltas, live := buildEvictChain(t)
	liveBytes, err := MarshalChain(live, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Budget knobs are capacity, not key validity: they are excluded
	// from the fingerprint, so the chain restores into an unbudgeted
	// engine — replaying the recorded tombstones reproduces the evicted
	// occupancy without re-running eviction. Registering the type claims
	// the restored section into the THT (bit-identity is a property of
	// the live table, not of an unclaimed pending section).
	cold := core.Config{Mode: core.ModeStatic, Seed: 7}
	restored, err := core.RestoreChain(cold, base, deltas)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := claimAndSnapshot(t, restored)
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, err := MarshalChain(snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, liveBytes) {
		t.Fatal("chain restore is not bit-identical to the live table")
	}

	chainBytes, err := MarshalChain(base, deltas)
	if err != nil {
		t.Fatal(err)
	}
	compacted, err := Compact(base, deltas...)
	if err != nil {
		t.Fatal(err)
	}
	compBytes, err := MarshalChain(compacted, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(compBytes) >= len(chainBytes) {
		t.Fatalf("compacted chain %d bytes, original %d: eviction folding must shrink the file",
			len(compBytes), len(chainBytes))
	}
	var liveEntries int
	for _, sec := range live.Types {
		liveEntries += len(sec.Entries)
	}
	var compEntries int
	for _, sec := range compacted.Types {
		for _, e := range sec.Entries {
			if e.Tombstone {
				t.Fatal("compacted snapshot must not contain tombstones")
			}
			compEntries++
		}
	}
	if compEntries != liveEntries {
		t.Fatalf("compacted snapshot holds %d entries, live table %d", compEntries, liveEntries)
	}

	restored2, err := core.Restore(cold, compacted)
	if err != nil {
		t.Fatal(err)
	}
	snap2, err := claimAndSnapshot(t, restored2)
	if err != nil {
		t.Fatal(err)
	}
	gotBytes2, err := MarshalChain(snap2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes2, liveBytes) {
		t.Fatal("restore from the compacted chain is not bit-identical to the live table")
	}
}

// TestChainTombstoneCorruptions walks the strict decoder's tombstone
// validations: out-of-range type index, out-of-order position, level
// overflow and an empty section are each typed corruption.
func TestChainTombstoneCorruptions(t *testing.T) {
	base, deltas, _ := buildEvictChain(t)
	data, err := MarshalChain(base, deltas)
	if err != nil {
		t.Fatal(err)
	}
	// Byte-level mutations risk landing in CRC-covered slack, so mutate
	// the decoded structures and re-encode invalid streams instead.
	_, ds, err := UnmarshalChain(data)
	if err != nil {
		t.Fatal(err)
	}
	var evicting *core.Delta
	for _, d := range ds {
		if d.Tombstones() > 0 {
			evicting = d
		}
	}
	if evicting == nil {
		t.Fatal("chain carries no tombstones")
	}
	if _, err := MarshalChain(base, []*core.Delta{evicting}); err != nil {
		t.Fatalf("tombstone-bearing delta alone must encode: %v", err)
	}

	// A tombstone naming a type outside the delta's type table must not
	// encode (the encoder validates what the decoder would reject).
	bad := *evicting
	bad.Entries = append([]core.DeltaEntry(nil), evicting.Entries...)
	for i := range bad.Entries {
		if bad.Entries[i].Tombstone {
			bad.Entries[i].Type = len(bad.Types) + 3
			break
		}
	}
	if _, err := MarshalChain(base, []*core.Delta{&bad}); err == nil {
		t.Fatal("tombstone with an out-of-range type index must not encode")
	}

	// MergeSnapshots only accepts full snapshots; a tombstone smuggled
	// into one is typed corruption.
	tomb := &core.Snapshot{
		Fingerprint: base.Fingerprint,
		Types: []core.TypeSnapshot{{
			Name:    "double",
			Steady:  true,
			Level:   15,
			Entries: []core.EntrySnapshot{{Key: 1, Level: 15, Tombstone: true}},
		}},
	}
	if _, err := MergeSnapshots(base, tomb); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("merge of a tombstone-bearing snapshot: %v, want ErrCorrupt", err)
	}
}
