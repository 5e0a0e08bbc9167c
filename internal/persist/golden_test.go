package persist

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"atm/internal/core"
	"atm/internal/region"
)

// The golden compatibility corpus pins the on-disk byte layout of both
// format versions against drift: the files under testdata/ are
// COMMITTED artifacts, and these tests assert that today's decoder
// still reads them and today's encoder still produces the version-2 one
// byte for byte. A failure here means the format changed — which must
// be a deliberate version bump (docs/persistence.md), never an
// accident.
//
// Regenerate the version-2 file with:
//
//	go test ./internal/persist -run Golden -update
//
// (only after a deliberate format change; commit the new file). The
// version-1 file is never regenerated: nothing writes that layout.
var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenFingerprint is a literal, not core.Fingerprint(...): the golden
// files pin bytes, and the fingerprint is opaque payload at this layer.
const goldenFingerprint = 0x0123456789abcdef

// goldenV1Snapshot is a hand-constructed snapshot covering every
// region kind, input-verification payloads, both phases, and an empty
// section — deterministic by construction (no engine, no hashing).
func goldenV1Snapshot() *core.Snapshot {
	f64 := region.NewFloat64(3)
	copy(f64.Data, []float64{1.5, -2.25, 3.125})
	f32 := region.NewFloat32(2)
	copy(f32.Data, []float32{0.5, -8})
	i32 := region.NewInt32(4)
	copy(i32.Data, []int32{-1, 0, 1, 2147483647})
	bts := region.NewBytes(5)
	copy(bts.Data, []byte{0, 1, 2, 254, 255})
	ins := region.NewFloat64(2)
	copy(ins.Data, []float64{42, -42})
	return &core.Snapshot{
		Fingerprint: goldenFingerprint,
		IKT:         core.IKTCounters{Inserts: 7, Defers: 3, Rejected: 1},
		Types: []core.TypeSnapshot{
			{
				Name: "steady-type", Steady: true, Level: 15,
				Entries: []core.EntrySnapshot{
					{Key: 0x1111111111111111, Level: 15, Provider: 9,
						Outs: []region.Region{f64, i32}, Ins: []region.Region{ins}},
					{Key: 0x2222222222222222, Level: 15, Provider: 10,
						Outs: []region.Region{bts}},
				},
			},
			{
				Name: "training-type", Steady: false, Level: 4, Successes: 6, Excluded: 2,
				Entries: []core.EntrySnapshot{
					{Key: 0x3333333333333333, Level: 4, Provider: 11,
						Outs: []region.Region{f32}},
				},
			},
			{Name: "empty-type", Steady: false, Level: 0},
		},
	}
}

// goldenV2Chain is a hand-constructed chain: a small base plus two
// deltas exercising meta rows, entry-target-only rows and an empty
// delta record.
func goldenV2Chain() (*core.Snapshot, []*core.Delta) {
	out1 := region.NewFloat64(2)
	copy(out1.Data, []float64{10, 20})
	out2 := region.NewInt32(2)
	copy(out2.Data, []int32{-5, 5})
	base := &core.Snapshot{
		Fingerprint: goldenFingerprint,
		Types: []core.TypeSnapshot{
			{Name: "alpha", Steady: true, Level: 15,
				Entries: []core.EntrySnapshot{
					{Key: 0xaaaaaaaaaaaaaaaa, Level: 15, Provider: 1, Outs: []region.Region{out1}},
				}},
		},
	}
	d1 := &core.Delta{
		Fingerprint: goldenFingerprint,
		Types: []core.TypeDelta{
			{Name: "alpha"}, // entry target only: meta unchanged since the base
			{Name: "beta", HasMeta: true, Steady: false, Level: 7, Successes: 2, Excluded: 1},
		},
		Entries: []core.DeltaEntry{
			{Type: 0, EntrySnapshot: core.EntrySnapshot{Key: 0xbbbbbbbbbbbbbbbb, Level: 15, Provider: 2, Outs: []region.Region{out2}}},
		},
	}
	d2 := &core.Delta{Fingerprint: goldenFingerprint} // an idle save
	return base, []*core.Delta{d1, d2}
}

func goldenPath(t *testing.T, name string) string {
	t.Helper()
	return filepath.Join("testdata", name)
}

func writeOrCompare(t *testing.T, path string, want []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update after a deliberate format change)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from today's encoder output: committed %d bytes, encoder %d bytes (a format change must bump the version and regenerate with -update)",
			path, len(got), len(want))
	}
}

// TestGoldenV1SnapshotLayout proves the cross-version guarantee: the
// committed version-1 full snapshot keeps decoding, through the bytes
// and the file readers, to goldenV1Snapshot — and v1Bytes, the
// test-side encoder of that layout, still reproduces it.
func TestGoldenV1SnapshotLayout(t *testing.T) {
	path := goldenPath(t, "v1_full.atmsnap")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	decoded, deltas, err := UnmarshalChain(data)
	if err != nil {
		t.Fatalf("committed v1 snapshot no longer decodes: %v", err)
	}
	if deltas != nil || !reflect.DeepEqual(decoded, goldenV1Snapshot()) {
		t.Fatal("committed v1 snapshot decodes to different content")
	}
	base, deltas, err := LoadChain(path)
	if err != nil {
		t.Fatalf("the file loader must keep reading v1 files: %v", err)
	}
	if deltas != nil || !reflect.DeepEqual(base, decoded) {
		t.Fatal("LoadChain(v1 golden) diverged from UnmarshalChain")
	}
	if !bytes.Equal(v1Bytes(t, decoded), data) {
		t.Fatal("v1Bytes no longer reproduces the committed v1 layout")
	}
}

// TestGoldenV2ChainLayout pins the version-2 record-stream byte layout
// (header, record framing, base and delta bodies, per-record and
// per-entry CRCs) against drift.
func TestGoldenV2ChainLayout(t *testing.T) {
	base, deltas := goldenV2Chain()
	want, err := MarshalChain(base, deltas)
	if err != nil {
		t.Fatal(err)
	}
	path := goldenPath(t, "v2_chain.atmsnap")
	writeOrCompare(t, path, want)
	if *updateGolden {
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotBase, gotDeltas, err := UnmarshalChain(data)
	if err != nil {
		t.Fatalf("committed v2 chain no longer decodes: %v", err)
	}
	wantBase, wantDeltas := goldenV2Chain()
	if !reflect.DeepEqual(gotBase, wantBase) {
		t.Fatal("committed v2 base decodes to different content")
	}
	if !reflect.DeepEqual(gotDeltas, wantDeltas) {
		t.Fatal("committed v2 deltas decode to different content")
	}
}
