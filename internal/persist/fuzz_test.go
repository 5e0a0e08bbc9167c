package persist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"atm/internal/core"
)

// reencode encodes a decoded chain; the canonicality checks compare
// against it.
func reencode(t *testing.T, base *core.Snapshot, deltas []*core.Delta) []byte {
	t.Helper()
	enc, err := MarshalChain(base, deltas)
	if err != nil {
		t.Fatalf("decoded chain failed to re-encode: %v", err)
	}
	return enc
}

// scribble changes every byte of b, so whatever aliases b changes too.
func scribble(b []byte) {
	for i := range b {
		b[i] ^= 0xff
	}
}

// FuzzDeltaChainDecode feeds arbitrary bytes to the strict chain
// decoder: decoding must never panic, and any accepted file is
// canonical — re-encoding it reproduces it byte for byte (exact
// lengths, validated enums and type indices, zeroed meta fields on
// meta-less type rows, records ending exactly at EOF), so a chain that
// survives a load/append cycle can never drift. The decoders read a
// private copy of the input that is overwritten before re-encoding,
// so a decoded chain that aliased its input would fail the check.
func FuzzDeltaChainDecode(f *testing.F) {
	base, deltas := buildChain(f)
	if data, err := MarshalChain(base, deltas); err == nil {
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	if dOnly, err := MarshalChain(nil, deltas); err == nil {
		f.Add(dOnly)
	}
	// A budget-evicting chain: its deltas interleave inserts with
	// tombstone records, seeding the optional tombstone section of the
	// delta body (count, type index, position ordering, identity rows).
	if eb, eds, _ := buildEvictChain(f); len(eds) > 0 {
		if data, err := MarshalChain(eb, eds); err == nil {
			f.Add(data)
			f.Add(data[:len(data)*3/4])
		}
	}
	f.Add(version1Golden(f)) // refused by the header check
	for _, refused := range []string{
		"v2_input_region.atmsnap", // an entry declares an input region
		"v2_excluded.atmsnap",     // a delta type row sets the reserved u32
	} {
		data, err := os.ReadFile(filepath.Join("testdata", refused))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte("ATMSNAP\x00junk"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Salvage invariants hold for every input, accepted or not:
		// SalvageChain never panics, and whatever it keeps re-encodes
		// to exactly the bytes it reported keeping — salvage is a
		// truncation to a valid prefix, never a rewrite.
		own := bytes.Clone(data)
		sb, sds, rep, serr := SalvageChain(own)
		scribble(own)
		if serr == nil {
			if rep.BytesKept+rep.BytesTruncated != int64(len(data)) {
				t.Fatalf("salvage report does not partition the input: %+v of %d bytes", rep, len(data))
			}
			if !bytes.Equal(reencode(t, sb, sds), data[:rep.BytesKept]) {
				t.Fatal("salvaged prefix must be canonical: encode(salvage(b)) != b[:BytesKept]")
			}
		}

		copy(own, data)
		b, ds, err := UnmarshalChain(own)
		scribble(own)
		if err != nil {
			if serr == nil && rep.Clean() {
				t.Fatalf("salvage called a strictly-rejected chain clean: %v", err)
			}
			return // rejected: fine, as long as we did not panic
		}
		if serr != nil || !rep.Clean() {
			t.Fatalf("strictly-accepted chain must salvage clean: %v (%+v)", serr, rep)
		}
		enc := reencode(t, b, ds)
		if !bytes.Equal(enc, data) {
			t.Fatal("accepted chain must be canonical: encode(decode(b)) != b")
		}
		if _, _, err := UnmarshalChain(enc); err != nil {
			t.Fatalf("re-encoded chain failed to decode: %v", err)
		}
	})
}

// FuzzMergeSnapshots drives MergeSnapshots with pairs of decoded
// snapshots: merging must never panic, must reject fingerprint skew
// with the typed error, and an accepted merge must be commutative
// (merge(a,b) == merge(b,a) byte for byte — the shard-reordering
// determinism property, fuzzed) and itself round-trip through the
// codec.
func FuzzMergeSnapshots(f *testing.F) {
	snap := buildSnapshot(f)
	if data, err := MarshalChain(snap, nil); err == nil {
		f.Add(data, data)
		if empty, err := MarshalChain(&core.Snapshot{Fingerprint: snap.Fingerprint}, nil); err == nil {
			f.Add(data, empty)
		}
	}
	// decodeFull accepts the inputs that hold one whole table.
	decodeFull := func(raw []byte) *core.Snapshot {
		base, deltas, err := UnmarshalChain(raw)
		if err != nil || len(deltas) != 0 {
			return nil
		}
		return base
	}
	f.Fuzz(func(t *testing.T, rawA, rawB []byte) {
		a, b := decodeFull(rawA), decodeFull(rawB)
		if a == nil || b == nil {
			return
		}
		ab, err := MergeSnapshots(a, b)
		if a.Fingerprint != b.Fingerprint {
			if !errors.Is(err, core.ErrSnapshotConfig) {
				t.Fatalf("fingerprint skew must be typed: %v", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("merge of two valid snapshots failed: %v", err)
		}
		ba, err := MergeSnapshots(b, a)
		if err != nil {
			t.Fatalf("reversed merge failed: %v", err)
		}
		encAB, err := MarshalChain(ab, nil)
		if err != nil {
			t.Fatalf("merged snapshot failed to encode: %v", err)
		}
		encBA, err := MarshalChain(ba, nil)
		if err != nil {
			t.Fatalf("reversed merged snapshot failed to encode: %v", err)
		}
		if !bytes.Equal(encAB, encBA) {
			t.Fatal("merge must be deterministic under shard reordering")
		}
		if decodeFull(encAB) == nil {
			t.Fatal("merged snapshot failed to decode")
		}
	})
}
