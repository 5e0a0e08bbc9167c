package persist

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"atm/internal/core"
	"atm/internal/region"
	"atm/internal/taskrt"
)

// buildChain produces a realistic chain from a live tracked engine: an
// empty base taken before any traffic, then two deltas of distinct
// work (the second includes a second task type, so the delta type
// table exercises both meta and entry-target rows).
func buildChain(t testing.TB) (*core.Snapshot, []*core.Delta) {
	t.Helper()
	memo := core.New(chainCfg())
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
	negate := rt.RegisterType(taskrt.TypeConfig{Name: "negate", Memoize: true, Run: func(task *taskrt.Task) {
		in, out := task.Int32s(0), task.Int32s(1)
		for i := range in {
			out[i] = -in[i]
		}
	}})
	submitDouble := func(v int) {
		in := region.NewFloat64(8)
		for i := range in.Data {
			in.Data[i] = float64(v*10 + i)
		}
		rt.Submit(double, taskrt.In(in), taskrt.Out(region.NewFloat64(8)))
	}
	for v := 0; v < 3; v++ {
		submitDouble(v)
	}
	rt.Wait()
	d1, err := memo.SnapshotDelta()
	if err != nil {
		t.Fatal(err)
	}
	for v := 3; v < 5; v++ {
		submitDouble(v)
	}
	iv := region.NewInt32(6)
	for i := range iv.Data {
		iv.Data[i] = int32(100 + i)
	}
	rt.Submit(negate, taskrt.In(iv), taskrt.Out(region.NewInt32(6)))
	rt.Wait()
	d2, err := memo.SnapshotDelta()
	if err != nil {
		t.Fatal(err)
	}
	rt.Close()
	return base, []*core.Delta{d1, d2}
}

func chainCfg() core.Config { return core.Config{Mode: core.ModeStatic, Seed: 7} }

func TestChainRoundTrip(t *testing.T) {
	base, deltas := buildChain(t)
	data, err := MarshalChain(base, deltas)
	if err != nil {
		t.Fatal(err)
	}
	if n := chainSize(base, deltas); n != len(data) {
		t.Fatalf("chain sized as %d bytes, encoded to %d", n, len(data))
	}
	gotBase, gotDeltas, err := UnmarshalChain(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotBase, base) {
		t.Fatal("base does not round-trip")
	}
	if !reflect.DeepEqual(gotDeltas, deltas) {
		t.Fatalf("deltas do not round-trip: %d vs %d", len(gotDeltas), len(deltas))
	}
	reenc, err := MarshalChain(gotBase, gotDeltas)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reenc, data) {
		t.Fatal("chain re-encode is not canonical")
	}
}

// TestDeltaRecordStreamed pins the streamed record AppendDelta writes
// against the in-memory encoder byte for byte, and the size its length
// field is written from against the encoded body — tombstones, every
// region kind and a delta several chunks long included.
func TestDeltaRecordStreamed(t *testing.T) {
	_, deltas := buildChain(t)
	_, evicting, _ := buildEvictChain(t)
	deltas = append(deltas, evicting...)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		deltas = append(deltas, randDelta(rng, 1))
	}
	big := randDelta(rng, 1)
	for len(big.Entries) < 20000 {
		big.Entries = append(big.Entries, core.DeltaEntry{EntrySnapshot: randEntry(rng)})
	}
	deltas = append(deltas, big)
	for i, d := range deltas {
		want, err := appendRecord(nil, recordDelta, func(b []byte) ([]byte, error) { return appendDeltaBody(b, d, nil) })
		if err != nil {
			t.Fatal(err)
		}
		if got := recordOverhead + deltaBodySize(d); got != len(want) {
			t.Errorf("delta %d: sized as %d bytes, encoded record is %d", i, got, len(want))
		}
		var got bytes.Buffer
		if err := writeDeltaRecord(&got, d); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("delta %d: streamed record differs from the in-memory one (%d vs %d bytes)", i, got.Len(), len(want))
		}
	}
	if n := deltaBodySize(big); n < 3*streamChunk {
		t.Fatalf("big delta is %d bytes: under three chunks, the streaming path is not exercised", n)
	}
}

func TestChainDeltaOnlyFile(t *testing.T) {
	_, deltas := buildChain(t)
	data, err := MarshalChain(nil, deltas)
	if err != nil {
		t.Fatal(err)
	}
	base, got, err := UnmarshalChain(data)
	if err != nil {
		t.Fatal(err)
	}
	if base != nil {
		t.Fatal("delta-only file must decode with a nil base")
	}
	if len(got) != len(deltas) {
		t.Fatalf("deltas: %d vs %d", len(got), len(deltas))
	}
}

func TestChainRejectsEmpty(t *testing.T) {
	if _, err := MarshalChain(nil, nil); err == nil {
		t.Fatal("empty chain must not encode")
	}
	base, _ := buildChain(t)
	data, err := MarshalChain(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := UnmarshalChain(data[:headerLen]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("header-only chain: want ErrCorrupt, got %v", err)
	}
}

func TestChainFingerprintConsistencyEnforced(t *testing.T) {
	base, deltas := buildChain(t)
	deltas[1].Fingerprint++
	if _, err := MarshalChain(base, deltas); err == nil {
		t.Fatal("mixed-fingerprint chain must not encode")
	}
}

func TestChainTypedErrors(t *testing.T) {
	base, deltas := buildChain(t)
	data, err := MarshalChain(base, deltas)
	if err != nil {
		t.Fatal(err)
	}

	bad := append([]byte("NOTSNAP\x00"), data[8:]...)
	if _, _, err := UnmarshalChain(bad); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: %v", err)
	}

	// A version-1 file decodes as its base alone, and refuses an
	// appended delta with the typed version error.
	v1 := v1Bytes(t, base)
	if got, ds, err := UnmarshalChain(v1); err != nil || ds != nil || !reflect.DeepEqual(got, base) {
		t.Fatalf("v1 file in UnmarshalChain: %v", err)
	}
	v1path := filepath.Join(t.TempDir(), "v1.atmsnap")
	if err := os.WriteFile(v1path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := AppendDelta(v1path, deltas[0]); !errors.Is(err, ErrVersion) {
		t.Fatalf("append to v1 file: %v", err)
	}
	if got, _ := os.ReadFile(v1path); !bytes.Equal(got, v1) {
		t.Fatal("a refused append modified the v1 file")
	}

	// Flip one byte inside the first record's body: its CRC must trip.
	flipped := bytes.Clone(data)
	flipped[headerLen+1+4] ^= 0xff
	if _, _, err := UnmarshalChain(flipped); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt record body: %v", err)
	}

	// An unknown record kind is corruption (the CRC covers only the
	// body, so the frame itself still verifies).
	kindless := bytes.Clone(data)
	kindless[headerLen] = 9
	if _, _, err := UnmarshalChain(kindless); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown record kind: %v", err)
	}
}

// TestChainTruncationBehavior pins the documented truncation contract:
// a cut exactly at a record boundary decodes as a valid shorter chain
// (the price of O(delta) appends), while a cut anywhere inside a
// record is rejected with a typed error.
func TestChainTruncationBehavior(t *testing.T) {
	base, deltas := buildChain(t)
	data, err := MarshalChain(base, deltas)
	if err != nil {
		t.Fatal(err)
	}
	boundaries := map[int]bool{}
	d := &decoder{data: data, off: headerLen}
	for d.remaining() > 0 {
		if _, err := d.u8(); err != nil {
			t.Fatal(err)
		}
		blen, err := d.u32()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.need(int(blen) + 4); err != nil {
			t.Fatal(err)
		}
		boundaries[d.off] = true
	}
	for n := 0; n < len(data); n++ {
		_, got, err := UnmarshalChain(data[:n])
		switch {
		case boundaries[n]:
			if err != nil {
				t.Fatalf("record-boundary cut at %d must decode: %v", n, err)
			}
			if len(got) >= len(deltas) {
				t.Fatalf("boundary cut at %d must drop trailing deltas, kept %d", n, len(got))
			}
		default:
			if err == nil {
				t.Fatalf("mid-record cut at %d of %d must be rejected", n, len(data))
			}
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) {
				t.Fatalf("cut at %d: untyped error %v", n, err)
			}
		}
	}
}

func TestSaveChainLoadChainAppendDelta(t *testing.T) {
	base, deltas := buildChain(t)
	path := filepath.Join(t.TempDir(), "chain.atmsnap")

	if err := SaveChain(path, base, deltas[:1]); err != nil {
		t.Fatal(err)
	}
	if err := AppendDelta(path, deltas[1]); err != nil {
		t.Fatal(err)
	}
	gotBase, gotDeltas, err := LoadChain(path)
	if err != nil {
		t.Fatal(err)
	}
	if gotBase == nil || len(gotDeltas) != 2 {
		t.Fatalf("chain after append: base=%v deltas=%d", gotBase != nil, len(gotDeltas))
	}
	if !reflect.DeepEqual(gotDeltas, deltas) {
		t.Fatal("appended delta does not round-trip")
	}

	// Fingerprint skew is caught before touching the file body.
	skew := *deltas[1]
	skew.Fingerprint++
	if err := AppendDelta(path, &skew); err == nil {
		t.Fatal("appending a mismatched-fingerprint delta must fail")
	}
}

func TestLoadChainReadsVersion1Files(t *testing.T) {
	// Cross-version load path: a v1 whole-table snapshot keeps loading
	// through the chain-aware loader as (base, no deltas).
	snap := buildSnapshot(t)
	path := filepath.Join(t.TempDir(), "v1.atmsnap")
	if err := os.WriteFile(path, v1Bytes(t, snap), 0o644); err != nil {
		t.Fatal(err)
	}
	base, deltas, err := LoadChain(path)
	if err != nil {
		t.Fatal(err)
	}
	if deltas != nil {
		t.Fatal("v1 file must load with no deltas")
	}
	if !reflect.DeepEqual(base, snap) {
		t.Fatal("v1 snapshot does not survive LoadChain")
	}
	if _, _, err := LoadChain(filepath.Join(t.TempDir(), "missing")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file must surface os.ErrNotExist: %v", err)
	}
}

func TestFileVersion(t *testing.T) {
	base, deltas := buildChain(t)
	v2, err := MarshalChain(base, deltas)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := FileVersion(v1Bytes(t, base)); err != nil || v != Version1 {
		t.Fatalf("v1 header: %d, %v", v, err)
	}
	if v, err := FileVersion(v2); err != nil || v != Version2 {
		t.Fatalf("v2 header: %d, %v", v, err)
	}
	if _, err := FileVersion([]byte("short")); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short header: %v", err)
	}
	if _, err := FileVersion(bytes.Repeat([]byte{0}, 16)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("junk header: %v", err)
	}
}
