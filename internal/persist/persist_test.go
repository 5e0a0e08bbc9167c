package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"atm/internal/core"
	"atm/internal/region"
	"atm/internal/taskrt"
)

// buildSnapshot produces a realistic snapshot: a static run over a few
// distinct inputs of two types, one with an input-verification payload.
func buildSnapshot(t testing.TB) *core.Snapshot {
	memo := core.New(core.Config{Mode: core.ModeStatic, VerifyInputs: true, Seed: 7})
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
	for v := 0; v < 5; v++ {
		in := region.NewFloat64(8)
		for i := range in.Data {
			in.Data[i] = float64(v*10 + i)
		}
		rt.Submit(double, taskrt.In(in), taskrt.Out(region.NewFloat64(8)))
		iv := region.NewInt32(6)
		for i := range iv.Data {
			iv.Data[i] = int32(v*100 + i)
		}
		rt.Submit(negate, taskrt.In(iv), taskrt.Out(region.NewInt32(6)))
	}
	rt.Wait()
	snap, err := memo.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rt.Close()
	return snap
}

// v1Bytes encodes s in the legacy version-1 layout, which the package
// reads but no longer writes: the chain header carrying version 1, then
// a base record's body without record framing.
func v1Bytes(t testing.TB, s *core.Snapshot) []byte {
	t.Helper()
	b := binary.LittleEndian.AppendUint32(append([]byte(nil), magic[:]...), Version1)
	b, err := appendBaseBody(binary.LittleEndian.AppendUint64(b, s.Fingerprint), s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRoundTrip(t *testing.T) {
	snap := buildSnapshot(t)
	data, err := MarshalChain(snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := chainSize(snap, nil); n != len(data) {
		t.Fatalf("whole table sized as %d bytes, encoded to %d", n, len(data))
	}
	got, deltas, err := UnmarshalChain(data)
	if err != nil {
		t.Fatal(err)
	}
	if deltas != nil {
		t.Fatalf("whole-table chain decoded %d deltas", len(deltas))
	}
	if got.Fingerprint != snap.Fingerprint {
		t.Fatalf("fingerprint: %#x vs %#x", got.Fingerprint, snap.Fingerprint)
	}
	if got.IKT != snap.IKT {
		t.Fatalf("ikt counters: %+v vs %+v", got.IKT, snap.IKT)
	}
	if len(got.Types) != len(snap.Types) {
		t.Fatalf("sections: %d vs %d", len(got.Types), len(snap.Types))
	}
	for i := range snap.Types {
		a, b := &snap.Types[i], &got.Types[i]
		if a.Name != b.Name || a.Steady != b.Steady || a.Level != b.Level ||
			a.Successes != b.Successes || a.Excluded != b.Excluded || len(a.Entries) != len(b.Entries) {
			t.Fatalf("section %d header mismatch: %+v vs %+v", i, a, b)
		}
		for j := range a.Entries {
			ea, eb := &a.Entries[j], &b.Entries[j]
			if ea.Key != eb.Key || ea.Level != eb.Level || ea.Provider != eb.Provider {
				t.Fatalf("entry %d/%d header mismatch", i, j)
			}
			for k := range ea.Outs {
				if !ea.Outs[k].EqualContents(eb.Outs[k]) {
					t.Fatalf("entry %d/%d output %d differs", i, j, k)
				}
			}
			for k := range ea.Ins {
				if !ea.Ins[k].EqualContents(eb.Ins[k]) {
					t.Fatalf("entry %d/%d input snapshot %d differs", i, j, k)
				}
			}
		}
	}
	// Determinism: re-encoding the decoded snapshot is byte-identical.
	data2, err := MarshalChain(got, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("re-encoding must be byte-identical")
	}
}

// The three decode tests below run on the legacy version-1 layout: the
// readers must stay as strict on it as on chains (whose truncation and
// corruption cases chain_test.go pins).

func TestDecodeRejectsEveryTruncation(t *testing.T) {
	data := v1Bytes(t, buildSnapshot(t))
	for n := 0; n < len(data); n++ {
		if _, _, err := UnmarshalChain(data[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes must not decode", n, len(data))
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	data := v1Bytes(t, buildSnapshot(t))
	// Flipping any single byte must never produce a silently different
	// snapshot: either the decode fails, or (for the rare flips that
	// keep the structure valid, e.g. inside the informational IKT
	// counters) the re-encoding reproduces the flipped input exactly.
	for i := range data {
		mut := bytes.Clone(data)
		mut[i] ^= 0x40
		s, _, err := UnmarshalChain(mut)
		if err != nil {
			continue
		}
		if !bytes.Equal(v1Bytes(t, s), mut) {
			t.Fatalf("flip at byte %d decoded to a different snapshot", i)
		}
	}
}

func TestDecodeTypedErrors(t *testing.T) {
	data := v1Bytes(t, buildSnapshot(t))

	bad := bytes.Clone(data)
	bad[0] = 'X'
	if _, _, err := UnmarshalChain(bad); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("magic: %v", err)
	}

	bad = bytes.Clone(data)
	bad[8] = 99 // version field
	if _, _, err := UnmarshalChain(bad); !errors.Is(err, ErrVersion) {
		t.Fatalf("version: %v", err)
	}

	if _, _, err := UnmarshalChain(data[:len(data)-3]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncation: %v", err)
	}

	if _, _, err := UnmarshalChain(append(bytes.Clone(data), 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing bytes: %v", err)
	}

	// Flip a byte inside the last entry's region payload: CRC must trip.
	bad = bytes.Clone(data)
	bad[len(bad)-6] ^= 0xff
	if _, _, err := UnmarshalChain(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("payload corruption: %v", err)
	}
}

func TestSaveLoadAndRestore(t *testing.T) {
	snap := buildSnapshot(t)
	path := filepath.Join(t.TempDir(), "warm.atmsnap")
	if err := SaveChain(path, snap, nil); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := LoadChain(path)
	if err != nil {
		t.Fatal(err)
	}
	// The loaded snapshot restores into a working engine.
	warm, err := core.Restore(core.Config{Mode: core.ModeStatic, VerifyInputs: true, Seed: 7}, loaded)
	if err != nil {
		t.Fatal(err)
	}
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: warm})
	defer rt.Close()
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: func(task *taskrt.Task) {
		t.Error("warm task must not execute")
	}})
	in := region.NewFloat64(8)
	for i := range in.Data {
		in.Data[i] = float64(i) // the v=0 input of buildSnapshot
	}
	out := region.NewFloat64(8)
	rt.Submit(tt, taskrt.In(in), taskrt.Out(out))
	rt.Wait()
	if out.Data[3] != 6 {
		t.Fatalf("warm hit must serve the stored outputs: %v", out.Data)
	}

	// A missing file is a cold start, distinguishable by errors.Is.
	if _, _, err := LoadChain(filepath.Join(t.TempDir(), "absent")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: %v", err)
	}
}
