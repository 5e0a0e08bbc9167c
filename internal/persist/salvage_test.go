package persist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// chainBoundaries scans an encoded v2 chain and returns the byte
// offset just past each record, plus the total record count at each
// boundary, using only the frame structure (kind, length, body, CRC).
func chainBoundaries(t *testing.T, data []byte) map[int]int {
	t.Helper()
	boundaries := map[int]int{}
	d := &decoder{data: data, off: headerLen}
	records := 0
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
		records++
		boundaries[d.off] = records
	}
	return boundaries
}

// salvageSweep asserts the full salvage contract at every truncation
// offset of a valid chain image: a cut at a record boundary salvages
// clean, a cut inside a record past the first boundary salvages to the
// preceding boundary with a canonical re-encode, and a cut before the
// first boundary is unrecoverable — and nothing ever panics.
func salvageSweep(t *testing.T, data []byte) {
	t.Helper()
	boundaries := chainBoundaries(t, data)
	firstBoundary := len(data)
	for off := range boundaries {
		if off < firstBoundary {
			firstBoundary = off
		}
	}
	for n := 0; n <= len(data); n++ {
		cut := data[:n]
		base, deltas, rep, err := SalvageChain(cut)
		switch {
		case n < firstBoundary:
			// Not even one whole record: nothing to salvage.
			if err == nil {
				t.Fatalf("cut at %d (< first boundary %d): salvage must fail", n, firstBoundary)
			}
			if rep.Reason == "" {
				t.Fatalf("cut at %d: unrecoverable report must carry a reason", n)
			}
		case boundaries[n] > 0:
			if err != nil {
				t.Fatalf("boundary cut at %d: %v", n, err)
			}
			if !rep.Clean() || rep.BytesKept != int64(n) || rep.RecordsKept != boundaries[n] {
				t.Fatalf("boundary cut at %d: report %+v, want clean, %d bytes, %d records", n, rep, n, boundaries[n])
			}
		default:
			// Mid-record past the first boundary: torn tail, salvage
			// keeps the prefix up to the last boundary before the cut.
			if err != nil {
				t.Fatalf("torn cut at %d: %v", n, err)
			}
			want := 0
			for off := range boundaries {
				if off <= n && off > want {
					want = off
				}
			}
			if rep.BytesKept != int64(want) || rep.Clean() || rep.Reason == "" {
				t.Fatalf("torn cut at %d: report %+v, want boundary %d with a reason", n, rep, want)
			}
			if rep.BytesTruncated != int64(n-want) {
				t.Fatalf("torn cut at %d: truncated %d, want %d", n, rep.BytesTruncated, n-want)
			}
			// The salvaged prefix must re-encode to exactly the bytes
			// that were kept — salvage is a truncation, never a rewrite.
			reenc, merr := MarshalChain(base, deltas)
			if merr != nil {
				t.Fatalf("torn cut at %d: re-encode: %v", n, merr)
			}
			if !bytes.Equal(reenc, data[:want]) {
				t.Fatalf("torn cut at %d: salvaged prefix is not canonical", n)
			}
		}
	}
}

func TestSalvageChainSweep(t *testing.T) {
	base, deltas := buildChain(t)
	data, err := MarshalChain(base, deltas)
	if err != nil {
		t.Fatal(err)
	}
	salvageSweep(t, data)
}

// TestSalvageGoldenSweep runs the salvage sweep over the pinned golden
// chain fixture: every byte-truncation of testdata/v2_chain.atmsnap
// must load, salvage, or fail with a typed report — never panic. This
// pins the recovery contract against the frozen wire format, not just
// against whatever today's encoder emits.
func TestSalvageGoldenSweep(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "v2_chain.atmsnap"))
	if err != nil {
		t.Fatal(err)
	}
	salvageSweep(t, data)
}

func TestSalvageCleanChain(t *testing.T) {
	base, deltas := buildChain(t)
	data, err := MarshalChain(base, deltas)
	if err != nil {
		t.Fatal(err)
	}
	gotBase, gotDeltas, rep, err := SalvageChain(data)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.BytesKept != int64(len(data)) || rep.RecordsKept != 1+len(deltas) || rep.Reason != "" {
		t.Fatalf("clean chain report: %+v", rep)
	}
	reenc, err := MarshalChain(gotBase, gotDeltas)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reenc, data) {
		t.Fatal("clean salvage must round-trip byte-identically")
	}
}

// TestSalvageRejectsCorruption pins the torn-vs-corrupt line: salvage
// recovers from missing bytes, never from wrong ones. A file whose
// present bytes are invalid is rejected outright even when a valid
// prefix exists — returning the prefix of a corrupted file would be
// silent data loss with no crash to explain it.
func TestSalvageRejectsCorruption(t *testing.T) {
	base, deltas := buildChain(t)
	data, err := MarshalChain(base, deltas)
	if err != nil {
		t.Fatal(err)
	}
	boundaries := chainBoundaries(t, data)

	// Flip a byte in the second record's body: record 0 is intact, but
	// the file is corrupt, not torn.
	first := len(data)
	for off := range boundaries {
		if off < first {
			first = off
		}
	}
	flipped := bytes.Clone(data)
	flipped[first+1+4] ^= 0xff
	if _, _, rep, err := SalvageChain(flipped); err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("CRC corruption must be unsalvageable, got %v (%+v)", err, rep)
	}

	// Unknown record kind: same verdict.
	kindless := bytes.Clone(data)
	kindless[first] = 9
	if _, _, _, err := SalvageChain(kindless); err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown kind must be unsalvageable, got %v", err)
	}

	// Bad magic and a header-only file: unrecoverable, typed reason.
	if _, _, rep, err := SalvageChain([]byte("NOTSNAP\x00rest")); err == nil || rep.Reason == "" {
		t.Fatalf("bad magic: %v (%+v)", err, rep)
	}
	if _, _, _, err := SalvageChain(data[:headerLen]); err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("header-only chain must be unsalvageable, got %v", err)
	}
}

func TestRepairChainTruncatesTornTail(t *testing.T) {
	base, deltas := buildChain(t)
	data, err := MarshalChain(base, deltas)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "chain.atmsnap")
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	// Plant a stale temp file as a crashed save would leave.
	if err := os.WriteFile(path+".tmp", []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := RepairChain(path, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || rep.BytesTruncated == 0 {
		t.Fatalf("repair of torn file reported clean: %+v", rep)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("repair must sweep the stale temp file: %v", err)
	}
	gotBase, gotDeltas, err := LoadChain(path)
	if err != nil {
		t.Fatalf("repaired chain must load strictly: %v", err)
	}
	if gotBase == nil || len(gotDeltas) != len(deltas)-1 {
		t.Fatalf("repaired chain: base=%v deltas=%d, want base and %d deltas", gotBase != nil, len(gotDeltas), len(deltas)-1)
	}

	// The repaired file accepts appends again, landing exactly the
	// bytes a never-torn chain would hold.
	if err := AppendDelta(path, deltas[len(deltas)-1]); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("repair + re-append must reproduce the full chain byte-identically")
	}
}

func TestRepairChainLeavesCleanAndCorruptAlone(t *testing.T) {
	base, deltas := buildChain(t)
	data, err := MarshalChain(base, deltas)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	clean := filepath.Join(dir, "clean.atmsnap")
	if err := os.WriteFile(clean, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := RepairChain(clean, SyncAlways)
	if err != nil || !rep.Clean() {
		t.Fatalf("repair of clean file: %v (%+v)", err, rep)
	}
	if got, _ := os.ReadFile(clean); !bytes.Equal(got, data) {
		t.Fatal("repair must not modify a clean file")
	}

	corrupt := filepath.Join(dir, "corrupt.atmsnap")
	bad := bytes.Clone(data)
	bad[len(bad)-1] ^= 0xff
	if err := os.WriteFile(corrupt, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RepairChain(corrupt, SyncAlways); err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("repair of corrupt file must refuse: %v", err)
	}
	if got, _ := os.ReadFile(corrupt); !bytes.Equal(got, bad) {
		t.Fatal("repair must not modify an unrecoverable file")
	}
}

func TestLoadChainSalvage(t *testing.T) {
	base, deltas := buildChain(t)
	data, err := MarshalChain(base, deltas)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	torn := filepath.Join(dir, "torn.atmsnap")
	if err := os.WriteFile(torn, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	gotBase, gotDeltas, rep, err := LoadChainSalvage(torn)
	if err != nil {
		t.Fatal(err)
	}
	if gotBase == nil || len(gotDeltas) != len(deltas)-1 || rep.Clean() {
		t.Fatalf("torn load: base=%v deltas=%d report=%+v", gotBase != nil, len(gotDeltas), rep)
	}
	// The file itself must be untouched: salvage loads, repair mutates.
	if got, _ := os.ReadFile(torn); len(got) != len(data)-5 {
		t.Fatal("LoadChainSalvage must not modify the file")
	}

	// A version-1 file loads as a single clean record.
	v1 := filepath.Join(dir, "v1.atmsnap")
	if err := os.WriteFile(v1, v1Bytes(t, base), 0o644); err != nil {
		t.Fatal(err)
	}
	s, ds, rep, err := LoadChainSalvage(v1)
	if err != nil || s == nil || ds != nil {
		t.Fatalf("v1 salvage load: %v", err)
	}
	if !rep.Clean() || rep.RecordsKept != 1 {
		t.Fatalf("v1 report: %+v", rep)
	}

	if _, _, _, err := LoadChainSalvage(filepath.Join(dir, "absent.atmsnap")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: %v", err)
	}
}
