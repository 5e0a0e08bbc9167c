package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
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

// chunkLog records the sizes of the writes a streamed encoder makes.
type chunkLog struct {
	bytes.Buffer
	writes []int
}

func (c *chunkLog) Write(p []byte) (int, error) {
	c.writes = append(c.writes, len(p))
	return c.Buffer.Write(p)
}

// TestStreamedBaseMatchesMarshal pins the chain a rewrite streams to its
// file (writeChain, SaveChainSync) against MarshalChain's byte for byte,
// and the base record both write against appendRecord's independent
// encoding, whose section and record lengths are patched in after the
// body rather than sized up front — the golden base, empty sections, a
// base several chunks long and a base followed by deltas.
func TestStreamedBaseMatchesMarshal(t *testing.T) {
	golden, _ := goldenV2Chain()
	base, deltas := buildChain(t)
	rng := rand.New(rand.NewSource(11))
	big := &core.Snapshot{Fingerprint: 1, Types: []core.TypeSnapshot{{Name: "a"}, {Name: "b", Steady: true, Level: 3}, {Name: "c"}}}
	for n, size := 0, 0; size < 3*streamChunk; n++ {
		sec := &big.Types[n%3]
		sec.Entries = append(sec.Entries, randEntry(rng))
		size += entrySize(&sec.Entries[len(sec.Entries)-1])
	}
	empty := &core.Snapshot{Fingerprint: 1, Types: []core.TypeSnapshot{{Name: "a"}, {Name: "b"}}}
	path := filepath.Join(t.TempDir(), "streamed.atmchain")
	for i, c := range []struct {
		base   *core.Snapshot
		deltas []*core.Delta
	}{{golden, nil}, {empty, nil}, {big, nil}, {base, deltas}} {
		want, err := MarshalChain(c.base, c.deltas)
		if err != nil {
			t.Fatal(err)
		}
		var got chunkLog
		if err := writeChain(&got, c.base, c.deltas); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("chain %d: streamed chain differs from MarshalChain's (%d vs %d bytes)", i, got.Len(), len(want))
		}
		for _, n := range got.writes {
			if n > streamChunk+streamChunk/8 {
				t.Fatalf("chain %d: a %d-byte write, over the chunk", i, n)
			}
		}
		if c.base == big && len(got.writes) < 3 {
			t.Fatalf("big base streamed in %d writes: the chunked path is not exercised", len(got.writes))
		}
		ref, err := appendRecord(want[:headerLen:headerLen], recordBase, func(b []byte) ([]byte, error) {
			return appendReferenceBase(b, c.base)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want[:len(ref)], ref) {
			t.Fatalf("chain %d: base record differs from the patched-length encoding", i)
		}
		if err := SaveChainSync(path, c.base, c.deltas, SyncOff); err != nil {
			t.Fatal(err)
		}
		if file, err := os.ReadFile(path); err != nil || !bytes.Equal(file, want) {
			t.Fatalf("chain %d: SaveChainSync wrote %d bytes unlike MarshalChain's (%v)", i, len(file), err)
		}
	}
}

// appendReferenceBase appends s's base body with each section's length
// patched in after its body, the way the encoder wrote it before section
// lengths were sized up front.
func appendReferenceBase(body []byte, s *core.Snapshot) ([]byte, error) {
	body = binary.LittleEndian.AppendUint64(body, uint64(s.IKT.Inserts))
	body = binary.LittleEndian.AppendUint64(body, uint64(s.IKT.Defers))
	body = binary.LittleEndian.AppendUint64(body, uint64(s.IKT.Rejected))
	body = binary.LittleEndian.AppendUint32(body, uint32(len(s.Types)))
	for i := range s.Types {
		at := len(body)
		var err error
		if body, err = appendSectionBody(append(body, 0, 0, 0, 0), &s.Types[i], nil); err != nil {
			return nil, err
		}
		binary.LittleEndian.PutUint32(body[at:], uint32(len(body)-at-4))
	}
	return body, nil
}

// TestChainSizes pins ChainSizes against the records' actual sizes —
// a base alone, one with empty sections, a delta-only chain and a base
// plus deltas — and DeltaRecordSize against what each delta appends.
func TestChainSizes(t *testing.T) {
	base, deltas := buildChain(t)
	empty := &core.Snapshot{Fingerprint: base.Fingerprint, Types: []core.TypeSnapshot{{Name: "a"}, {Name: "b", Steady: true}}}
	path := filepath.Join(t.TempDir(), "c.atmchain")
	for i, c := range []struct {
		base   *core.Snapshot
		deltas []*core.Delta
	}{{base, nil}, {empty, nil}, {nil, deltas}, {base, deltas}} {
		if err := SaveChainSync(path, c.base, c.deltas, SyncOff); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		var wantBase int64
		if c.base != nil {
			wantBase = int64(recordOverhead + baseBodySize(c.base))
		}
		gotBase, tail, err := ChainSizes(path)
		if err != nil || gotBase != wantBase || tail != st.Size()-headerLen-wantBase {
			t.Fatalf("chain %d: ChainSizes = %d, %d, %v; want base %d of %d bytes", i, gotBase, tail, err, wantBase, st.Size())
		}
		var sum int64
		for _, d := range c.deltas {
			sum += DeltaRecordSize(d)
		}
		if sum != tail {
			t.Fatalf("chain %d: delta records sized as %d bytes, the file holds %d after the base", i, sum, tail)
		}
	}
	if err := os.WriteFile(path, []byte("ATMSNAP"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ChainSizes(path); !errors.Is(err, ErrTruncated) {
		t.Fatalf("ChainSizes on a torn header: %v, want ErrTruncated", err)
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

	// Loading a file reports what reading it (os.ReadFile) or decoding
	// its bytes (UnmarshalChain, behind the path) reports, whether the
	// file is mapped or read: a missing file stays a cold start.
	dir := t.TempDir()
	if _, _, err := LoadChain(filepath.Join(dir, "missing")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing chain: %v", err)
	}
	_, rerr := os.ReadFile(dir)
	if _, _, err := LoadChain(dir); err == nil || rerr == nil || err.Error() != rerr.Error() {
		t.Fatalf("directory: LoadChain says %v, os.ReadFile %v", err, rerr)
	}
	for name, c := range map[string]struct {
		data []byte
		want error
	}{
		"empty":   {nil, ErrTruncated},
		"torn":    {data[:len(data)-3], ErrTruncated},
		"corrupt": {flipped, ErrCorrupt},
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, uerr := UnmarshalChain(c.data)
		_, _, err := LoadChain(path)
		if !errors.Is(err, c.want) || err.Error() != path+": "+uerr.Error() {
			t.Fatalf("%s file: LoadChain says %v, want %v behind the path", name, err, uerr)
		}
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

// version1Golden is the committed golden chain with its version field
// set to 1: the header of a file written before every save wrote
// version 2.
func version1Golden(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "v2_chain.atmsnap"))
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[8:12], 1)
	return data
}

// TestVersionOneRefused: every reader refuses a version-1 file with the
// typed ErrVersion, as unrecoverable as any header failure, and no
// reader, repair or append changes its bytes.
func TestVersionOneRefused(t *testing.T) {
	data := version1Golden(t)
	if v, err := FileVersion(data); err != nil || v != 1 {
		t.Fatalf("FileVersion: %d, %v", v, err)
	}
	if _, _, err := UnmarshalChain(data); !errors.Is(err, ErrVersion) {
		t.Fatalf("UnmarshalChain: %v", err)
	}
	if _, _, rep, err := SalvageChain(data); !errors.Is(err, ErrVersion) || rep.BytesKept != 0 {
		t.Fatalf("SalvageChain: %v (%+v)", err, rep)
	}

	path := filepath.Join(t.TempDir(), "v1.atmsnap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadChain(path); !errors.Is(err, ErrVersion) {
		t.Fatalf("LoadChain: %v", err)
	}
	if _, _, _, err := LoadChainSalvage(path); !errors.Is(err, ErrVersion) {
		t.Fatalf("LoadChainSalvage: %v", err)
	}
	if _, err := RepairChain(path, SyncAlways); !errors.Is(err, ErrVersion) {
		t.Fatalf("RepairChain: %v", err)
	}
	_, deltas := goldenV2Chain() // the golden's fingerprint: only the version differs
	if err := AppendDelta(path, deltas[1]); !errors.Is(err, ErrVersion) {
		t.Fatalf("AppendDelta: %v", err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, data) {
		t.Fatal("a refused version-1 file was modified")
	}
}

func TestFileVersion(t *testing.T) {
	base, deltas := buildChain(t)
	v2, err := MarshalChain(base, deltas)
	if err != nil {
		t.Fatal(err)
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

// appendRecord appends one framed record whose body fill appends to
// buf in place, patching its length and CRC over the body afterwards:
// an encoder independent of chainWriter's up-front sizes and streamed
// CRC, for the tests to hold it against.
func appendRecord(buf []byte, kind byte, fill func([]byte) ([]byte, error)) ([]byte, error) {
	at := len(buf)
	buf, err := fill(append(buf, kind, 0, 0, 0, 0))
	if err != nil {
		return nil, err
	}
	body := buf[at+5:]
	binary.LittleEndian.PutUint32(buf[at+1:], uint32(len(body)))
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(body)), nil
}
