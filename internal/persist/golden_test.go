package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"atm/internal/core"
	"atm/internal/region"
)

// The golden compatibility corpus pins the on-disk byte layout against
// drift: the file under testdata/ is a COMMITTED artifact, and these
// tests assert that today's decoder still reads it and today's encoder
// still produces it byte for byte. A failure here means the format
// changed — which must be a deliberate version bump
// (docs/persistence.md), never an accident.
//
// Regenerate the file with:
//
//	go test ./internal/persist -run Golden -update
//
// (only after a deliberate format change; commit the new file).
var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenFingerprint is a literal, not core.Fingerprint(...): the golden
// files pin bytes, and the fingerprint is opaque payload at this layer.
const goldenFingerprint = 0x0123456789abcdef

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
			{Name: "beta", HasMeta: true, Steady: false, Level: 7, Successes: 2},
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

// inputRegionChain is the golden base as an input-verifying engine
// once wrote it: its one entry carries an input region beside its
// output, and the entry, section and record lengths and CRCs match.
func inputRegionChain(t testing.TB) []byte {
	t.Helper()
	base, _ := goldenV2Chain()
	in := region.NewFloat64(2)
	copy(in.Data, []float64{1, 2})
	head, err := MarshalChain(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := appendRecord(head[:headerLen:headerLen], recordBase, func(b []byte) ([]byte, error) {
		at := len(b)
		b, err := appendBaseBody(b, base, nil)
		if err != nil {
			return nil, err
		}
		// One section of one entry: the body ends with that entry's
		// input-region count (0) and CRC.
		entryAt := len(b) - entrySize(&base.Types[0].Entries[0])
		b = binary.LittleEndian.AppendUint16(b[:len(b)-6], 1)
		if b, err = appendRegion(b, in); err != nil {
			return nil, err
		}
		binary.LittleEndian.PutUint32(b[entryAt:], uint32(len(b)-entryAt-4))
		b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[entryAt+4:]))
		sectionAt := at + 3*8 + 4 // behind the IKT counters and the section count
		binary.LittleEndian.PutUint32(b[sectionAt:], uint32(len(b)-sectionAt-4))
		return b, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestInputRegionEntryRefused: the reserved fields are always 0, and a
// committed chain that sets one is typed corruption to every strict
// reader. v2_input_region.atmsnap's base entry declares one input
// region. v2_excluded.atmsnap is the golden chain as it was written
// while type rows carried an exclusion-set size: its first delta's
// "beta" row counts 1 in the now reserved u32. Its bytes are all
// present and CRC-valid, so salvage finds no torn tail to cut: the
// valid prefix ends after the base record, and the chain is refused.
func TestInputRegionEntryRefused(t *testing.T) {
	path := goldenPath(t, "v2_input_region.atmsnap")
	writeOrCompare(t, path, inputRegionChain(t))
	if *updateGolden {
		return
	}
	for _, c := range []struct {
		file string
		kept int // records in the valid prefix
	}{
		{"v2_input_region.atmsnap", 0},
		{"v2_excluded.atmsnap", 1},
	} {
		path := goldenPath(t, c.file)
		if _, _, err := LoadChain(path); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: LoadChain: %v, want ErrCorrupt", c.file, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, _, rep, err := SalvageChain(data)
		if !errors.Is(err, ErrCorrupt) || rep.RecordsKept != c.kept {
			t.Fatalf("%s: SalvageChain kept %d records (%v), want %d and ErrCorrupt", c.file, rep.RecordsKept, err, c.kept)
		}
	}

	// A base section's reserved u32 is refused the same way.
	base, _ := goldenV2Chain()
	head, err := MarshalChain(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := appendRecord(head[:headerLen:headerLen], recordBase, func(b []byte) ([]byte, error) {
		at := len(b)
		b, err := appendBaseBody(b, base, nil)
		if err != nil {
			return nil, err
		}
		// Behind the IKT counters, the section count and length, and
		// the section's name, flags, level and successes.
		binary.LittleEndian.PutUint32(b[at+3*8+4+4+2+len(base.Types[0].Name)+1+1+4:], 1)
		return b, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := UnmarshalChain(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("base section with a reserved word set: %v, want ErrCorrupt", err)
	}
}
