package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"atm/internal/core"
	"atm/internal/failpoint"
)

// This file defines format version 2, the incremental chain layout: a
// header followed by a stream of CRC-framed records — one optional
// full-base record and any number of ordered delta records. A chain
// file is appended to in O(delta) I/O (AppendDelta), which is what
// makes per-save cost proportional to the churn instead of to the
// table: a long-lived service (or a sweep repetition) saves a delta
// record; snapshotctl (or persist.Compact) folds a chain back into a
// single base.
//
//	[8]  magic "ATMSNAP\x00"
//	[4]  u32 format version (2)
//	[8]  u64 config fingerprint (core.Fingerprint; one per file —
//	     every record must be produced under the same config)
//	...  records until EOF, each:
//	       [1] u8 kind (1 = base, 2 = delta)
//	       [4] u32 body length, then the body
//	       [4] u32 CRC-32 (IEEE) of the body
//
// A base record may appear only as the first record (a file may also
// hold deltas alone — a shard's incremental save, chained onto a base
// kept elsewhere). At least one record is required.
//
//	base body:   3 × i64 IKT counters, u32 section count, sections
//	             (the section encoding of persist.go, per-entry CRC and all)
//	delta body:  u32 type count, then per type:
//	               u16 name length + name bytes
//	               u8 flags (bit 0: steady, bit 1: has-meta), u8 level
//	               u32 successes, u32 excluded-region count
//	               (all four meta fields must be zero when has-meta is
//	               unset — the type is present only as an entry target)
//	             u32 insert count, then per insert:
//	               u32 type index (into this delta's type table)
//	               the entry encoding of persist.go (length, body, CRC)
//	             optionally, when the delta carries eviction tombstones
//	             (the body ends after the inserts otherwise — old
//	             tombstone-free encodings are unchanged, and the section
//	             must be non-empty when present, so every delta has
//	             exactly one encoding):
//	               u32 tombstone count (≥ 1), then per tombstone:
//	                 u32 type index (into this delta's type table)
//	                 u32 position — the number of inserts preceding this
//	                     tombstone in the operation stream; non-decreasing
//	                     across the section and ≤ the insert count, which
//	                     is how the decoder rebuilds the interleaved
//	                     insert/tombstone order replay depends on
//	                 u64 key, u8 p level, u64 provider task id
//
// Decoding is strict — exact lengths, validated enums and indices,
// verified CRCs, no trailing bytes, typed errors, never a panic — with
// one deliberate exception: the record stream ends at EOF, so a chain
// cut exactly at a record boundary decodes as a valid, shorter chain.
// That is the price of O(delta) appends (no up-front record count to
// rewrite); a snapshot is a cache, and a chain missing its newest
// deltas merely restores less warm state. A tear anywhere
// inside a record is rejected by UnmarshalChain; SalvageChain
// (salvage.go) truncates such a torn tail back to the last valid
// record boundary instead of discarding the file.
//
// Every reader also accepts a version-1 file (see persist.go): the same
// header, then one base body without record framing. It decodes as a
// chain of that one base record, which cannot be salvaged and cannot
// take an appended delta.

// Record kinds.
const (
	recordBase  = 1
	recordDelta = 2
)

// headerLen is magic + version + fingerprint.
const headerLen = 8 + 4 + 8

// FileVersion reads the format version from an encoded snapshot
// header without decoding the rest: what snapshotctl inspect reports,
// and how chain mode tells a legacy version-1 file it must rewrite.
func FileVersion(data []byte) (uint32, error) {
	if len(data) < 12 {
		return 0, fmt.Errorf("%w: %d-byte header", ErrTruncated, len(data))
	}
	if [8]byte(data[:8]) != magic {
		return 0, ErrBadMagic
	}
	return binary.LittleEndian.Uint32(data[8:12]), nil
}

// MarshalChain encodes a chain: an optional full base snapshot
// followed by deltas in order. All parts must share one config
// fingerprint, and the chain must not be empty.
func MarshalChain(base *core.Snapshot, deltas []*core.Delta) ([]byte, error) {
	var fp uint64
	switch {
	case base != nil:
		fp = base.Fingerprint
	case len(deltas) > 0:
		fp = deltas[0].Fingerprint
	default:
		return nil, fmt.Errorf("persist: empty chain (no base, no deltas)")
	}
	for i, d := range deltas {
		if d.Fingerprint != fp {
			return nil, fmt.Errorf("persist: delta %d fingerprint %#016x differs from chain %#016x", i, d.Fingerprint, fp)
		}
	}
	buf := make([]byte, 0, chainSize(base, deltas))
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, Version2)
	buf = binary.LittleEndian.AppendUint64(buf, fp)
	var err error
	if base != nil {
		buf, err = appendRecord(buf, recordBase, func(b []byte) ([]byte, error) { return appendBaseBody(b, base) })
		if err != nil {
			return nil, err
		}
	}
	for i, d := range deltas {
		buf, err = appendRecord(buf, recordDelta, func(b []byte) ([]byte, error) { return appendDeltaBody(b, d, nil) })
		if err != nil {
			return nil, fmt.Errorf("persist: delta %d: %w", i, err)
		}
	}
	return buf, nil
}

// chainSize is the number of bytes MarshalChain encodes base and deltas
// to. MarshalChain allocates exactly that once, where growing the
// buffer by appends would copy the table several times over.
func chainSize(base *core.Snapshot, deltas []*core.Delta) int {
	n := headerLen
	if base != nil {
		n += recordOverhead + baseBodySize(base)
	}
	for _, d := range deltas {
		n += recordOverhead + deltaBodySize(d)
	}
	return n
}

// appendRecord appends one framed record whose body fill appends to
// buf in place: the frame is reserved first, and its length and CRC are
// patched over the body afterwards, so a record costs no scratch copy.
func appendRecord(buf []byte, kind byte, fill func([]byte) ([]byte, error)) ([]byte, error) {
	at := len(buf)
	buf, err := fill(append(buf, kind, 0, 0, 0, 0))
	if err != nil {
		return nil, err
	}
	body := buf[at+5:]
	if len(body) > math.MaxUint32 {
		return nil, fmt.Errorf("persist: %d-byte record body overflows the format", len(body))
	}
	binary.LittleEndian.PutUint32(buf[at+1:], uint32(len(body)))
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(body)), nil
}

// recordOverhead is a record's framing: kind, body length, body CRC.
const recordOverhead = 1 + 4 + 4

// streamChunk is how much of a delta record writeDeltaRecord gathers
// between writes.
const streamChunk = 256 << 10

// writeDeltaRecord writes d's framed record to w through a buffer of
// about streamChunk bytes: the length field comes from deltaBodySize and
// the CRC is summed as chunks leave, so what a save holds in memory is
// one chunk, not a second copy of everything inserted since the last
// save. A record under a chunk long is still a single Write.
func writeDeltaRecord(w io.Writer, d *core.Delta) error {
	size := deltaBodySize(d)
	if size > math.MaxUint32 {
		return fmt.Errorf("persist: %d-byte record body overflows the format", size)
	}
	buf := make([]byte, 0, min(recordOverhead+size, streamChunk+streamChunk/8))
	buf = append(buf, recordDelta)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(size))
	head, sum, n := len(buf), uint32(0), 0 // head: framing bytes at the front of buf
	body := func(b []byte) {
		sum = crc32.Update(sum, crc32.IEEETable, b[head:])
		n += len(b) - head
		head = 0
	}
	buf, err := appendDeltaBody(buf, d, func(b []byte) ([]byte, error) {
		body(b)
		_, err := w.Write(b)
		return b[:0], err
	})
	if err != nil {
		return err
	}
	body(buf)
	if n != size {
		return fmt.Errorf("persist: delta body encoded to %d bytes, sized as %d", n, size)
	}
	_, err = w.Write(binary.LittleEndian.AppendUint32(buf, sum))
	return err
}

// landWriter lands the first n bytes written to it in w and drops the
// rest: FailpointAppend's partial write, spread over a streamed record.
type landWriter struct {
	w io.Writer
	n int
}

func (l *landWriter) Write(p []byte) (int, error) {
	k := min(len(p), l.n)
	l.n -= k
	if _, err := l.w.Write(p[:k]); err != nil {
		return 0, err
	}
	return len(p), nil
}

// deltaBodySize is the number of bytes appendDeltaBody appends for d.
func deltaBodySize(d *core.Delta) int {
	n := 4
	for i := range d.Types {
		n += 2 + len(d.Types[i].Name) + 1 + 1 + 4 + 4
	}
	n += 4
	tombs := 0
	for i := range d.Entries {
		e := &d.Entries[i].EntrySnapshot
		if e.Tombstone {
			tombs++
			continue
		}
		n += 4 + entrySize(e) // type index, entry
	}
	if tombs > 0 {
		n += 4 + tombs*(4+4+8+1+8)
	}
	return n
}

// baseBodySize is the number of bytes appendBaseBody appends for s.
func baseBodySize(s *core.Snapshot) int {
	n := 3*8 + 4
	for i := range s.Types {
		sec := &s.Types[i]
		// length, name, flags, level, successes, excluded, entry count
		n += 4 + 2 + len(sec.Name) + 1 + 1 + 4 + 4 + 4
		for j := range sec.Entries {
			n += entrySize(&sec.Entries[j])
		}
	}
	return n
}

func appendBaseBody(body []byte, s *core.Snapshot) ([]byte, error) {
	body = binary.LittleEndian.AppendUint64(body, uint64(s.IKT.Inserts))
	body = binary.LittleEndian.AppendUint64(body, uint64(s.IKT.Defers))
	body = binary.LittleEndian.AppendUint64(body, uint64(s.IKT.Rejected))
	if len(s.Types) > math.MaxUint32 {
		return nil, fmt.Errorf("persist: %d sections overflow the format", len(s.Types))
	}
	body = binary.LittleEndian.AppendUint32(body, uint32(len(s.Types)))
	for i := range s.Types {
		// The section body is encoded in place behind its reserved length.
		at := len(body)
		var err error
		body, err = appendSectionBody(append(body, 0, 0, 0, 0), &s.Types[i])
		if err != nil {
			return nil, err
		}
		n := len(body) - at - 4
		if n > math.MaxUint32 {
			return nil, fmt.Errorf("persist: type %q: %d-byte section overflows the format", s.Types[i].Name, n)
		}
		binary.LittleEndian.PutUint32(body[at:], uint32(n))
	}
	return body, nil
}

// appendDeltaBody appends d's body to body. A non-nil flush is handed
// the bytes so far between two entries whenever streamChunk of them have
// gathered, and returns the buffer to carry on in, so a file append
// streams the body through a bounded buffer instead of holding it whole.
func appendDeltaBody(body []byte, d *core.Delta, flush func([]byte) ([]byte, error)) ([]byte, error) {
	if len(d.Types) > math.MaxUint32 {
		return nil, fmt.Errorf("%d delta types overflow the format", len(d.Types))
	}
	body = binary.LittleEndian.AppendUint32(body, uint32(len(d.Types)))
	for i := range d.Types {
		td := &d.Types[i]
		if len(td.Name) > math.MaxUint16 {
			return nil, fmt.Errorf("type name %q overflows the format", td.Name[:32])
		}
		body = binary.LittleEndian.AppendUint16(body, uint16(len(td.Name)))
		body = append(body, td.Name...)
		// Meta fields are canonically zero without has-meta: one logical
		// delta has exactly one encoding.
		if !td.HasMeta {
			body = append(body, 0, 0)
			body = binary.LittleEndian.AppendUint32(body, 0)
			body = binary.LittleEndian.AppendUint32(body, 0)
			continue
		}
		flags := byte(2)
		if td.Steady {
			flags |= 1
		}
		body = append(body, flags, byte(td.Level))
		body = binary.LittleEndian.AppendUint32(body, uint32(td.Successes))
		body = binary.LittleEndian.AppendUint32(body, uint32(td.Excluded))
	}
	if len(d.Entries) > math.MaxUint32 {
		return nil, fmt.Errorf("%d delta entries overflow the format", len(d.Entries))
	}
	// The operation stream splits into the insert list and a trailing
	// tombstone section; each tombstone records its position (inserts
	// preceding it) so the decoder rebuilds the exact interleave.
	type tombstone struct {
		typeIdx  int
		pos      int
		key      uint64
		level    int8
		provider uint64
	}
	var tombs []tombstone
	inserts := 0
	for i := range d.Entries {
		de := &d.Entries[i]
		if de.Type < 0 || de.Type >= len(d.Types) {
			return nil, fmt.Errorf("entry %d references type %d of %d", i, de.Type, len(d.Types))
		}
		if de.Tombstone {
			tombs = append(tombs, tombstone{typeIdx: de.Type, pos: inserts, key: de.Key, level: de.Level, provider: de.Provider})
			continue
		}
		inserts++
	}
	body = binary.LittleEndian.AppendUint32(body, uint32(inserts))
	for i := range d.Entries {
		de := &d.Entries[i]
		if de.Tombstone {
			continue
		}
		var err error
		body, err = appendEntry(binary.LittleEndian.AppendUint32(body, uint32(de.Type)), &de.EntrySnapshot)
		if err != nil {
			return nil, fmt.Errorf("entry %d: %w", i, err)
		}
		if flush != nil && len(body) >= streamChunk {
			if body, err = flush(body); err != nil {
				return nil, err
			}
		}
	}
	// The tombstone section is emitted only when non-empty, so a delta
	// without evictions encodes exactly as it always has.
	if len(tombs) > 0 {
		body = binary.LittleEndian.AppendUint32(body, uint32(len(tombs)))
		for _, t := range tombs {
			body = binary.LittleEndian.AppendUint32(body, uint32(t.typeIdx))
			body = binary.LittleEndian.AppendUint32(body, uint32(t.pos))
			body = binary.LittleEndian.AppendUint64(body, t.key)
			body = append(body, byte(t.level))
			body = binary.LittleEndian.AppendUint64(body, t.provider)
		}
	}
	return body, nil
}

// UnmarshalChain decodes a chain, strictly (see the layout comment for
// the one record-boundary caveat). The returned base is nil for a
// delta-only file; a version-1 file decodes as its base alone.
func UnmarshalChain(data []byte) (*core.Snapshot, []*core.Delta, error) {
	base, deltas, _, _, err := scanChain(data)
	if err != nil {
		return nil, nil, err
	}
	if base == nil && len(deltas) == 0 {
		return nil, nil, fmt.Errorf("%w: chain with no records", ErrCorrupt)
	}
	return base, deltas, nil
}

// scanChain is the greedy record-stream parser behind UnmarshalChain
// and SalvageChain: it decodes records until the stream ends or the
// first failure, returning the decoded prefix, the byte offset just
// past its last valid record (the salvage boundary), and whether the
// failure was a torn tail — the remaining bytes ran out mid-record, so
// everything present is consistent with a valid longer file — as
// opposed to corruption (a CRC mismatch, an invalid enum or index, a
// misplaced record) inside bytes that are all there. Header failures
// are never torn: without magic, version and fingerprint nothing is
// salvageable. Neither are version-1 failures: the legacy file is one
// unframed record, so its boundary is the header or the whole file.
func scanChain(data []byte) (base *core.Snapshot, deltas []*core.Delta, boundary int, torn bool, err error) {
	d := &decoder{data: data}
	head, err := d.need(8)
	if err != nil {
		return nil, nil, 0, false, err
	}
	if [8]byte(head) != magic {
		return nil, nil, 0, false, ErrBadMagic
	}
	ver, err := d.u32()
	if err != nil {
		return nil, nil, 0, false, err
	}
	if ver != Version1 && ver != Version2 {
		return nil, nil, 0, false, fmt.Errorf("%w: file version %d, want %d or %d", ErrVersion, ver, Version1, Version2)
	}
	fp, err := d.u64()
	if err != nil {
		return nil, nil, 0, false, err
	}
	boundary = d.off
	if ver == Version1 {
		if base, err = decodeBaseBody(data[boundary:], fp); err != nil {
			return nil, nil, boundary, false, err
		}
		return base, nil, len(data), false, nil
	}
	for rec := 0; d.remaining() > 0; rec++ {
		// Framing: a failure here hit EOF inside the record — a torn
		// tail, the valid prefix before it intact.
		kind, err := d.u8()
		if err != nil {
			return base, deltas, boundary, true, err
		}
		blen, err := d.u32()
		if err != nil {
			return base, deltas, boundary, true, err
		}
		body, err := d.need(int(blen))
		if err != nil {
			return base, deltas, boundary, true, err
		}
		sum, err := d.u32()
		if err != nil {
			return base, deltas, boundary, true, err
		}
		// The record's bytes are all present: any failure from here on
		// means the file is wrong, not merely cut short.
		if crc32.ChecksumIEEE(body) != sum {
			return base, deltas, boundary, false, fmt.Errorf("%w: record %d CRC mismatch", ErrCorrupt, rec)
		}
		switch kind {
		case recordBase:
			if rec != 0 {
				return base, deltas, boundary, false, fmt.Errorf("%w: base record at position %d (must be first)", ErrCorrupt, rec)
			}
			base, err = decodeBaseBody(body, fp)
		case recordDelta:
			var dl *core.Delta
			dl, err = decodeDeltaBody(body, fp)
			if err == nil {
				deltas = append(deltas, dl)
			}
		default:
			return base, deltas, boundary, false, fmt.Errorf("%w: unknown record kind %d", ErrCorrupt, kind)
		}
		if err != nil {
			return base, deltas, boundary, false, fmt.Errorf("record %d: %w", rec, err)
		}
		boundary = d.off
	}
	return base, deltas, boundary, false, nil
}

func decodeBaseBody(body []byte, fp uint64) (*core.Snapshot, error) {
	d := &decoder{data: body}
	s := &core.Snapshot{Fingerprint: fp}
	for _, p := range []*int64{&s.IKT.Inserts, &s.IKT.Defers, &s.IKT.Rejected} {
		v, err := d.u64()
		if err != nil {
			return nil, err
		}
		*p = int64(v)
	}
	nsec, err := d.u32()
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for i := uint32(0); i < nsec; i++ {
		blen, err := d.u32()
		if err != nil {
			return nil, err
		}
		sb, err := d.need(int(blen))
		if err != nil {
			return nil, err
		}
		sec, err := decodeSection(sb)
		if err != nil {
			return nil, fmt.Errorf("section %d: %w", i, err)
		}
		if seen[sec.Name] {
			return nil, fmt.Errorf("%w: duplicate section for type %q", ErrCorrupt, sec.Name)
		}
		seen[sec.Name] = true
		s.Types = append(s.Types, *sec)
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d stray bytes in base record", ErrCorrupt, d.remaining())
	}
	return s, nil
}

func decodeDeltaBody(body []byte, fp uint64) (*core.Delta, error) {
	d := &decoder{data: body}
	dl := &core.Delta{Fingerprint: fp}
	ntypes, err := d.u32()
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for i := uint32(0); i < ntypes; i++ {
		nlen, err := d.u16()
		if err != nil {
			return nil, err
		}
		name, err := d.need(int(nlen))
		if err != nil {
			return nil, err
		}
		td := core.TypeDelta{Name: string(name)}
		if seen[td.Name] {
			return nil, fmt.Errorf("%w: duplicate delta type %q", ErrCorrupt, td.Name)
		}
		seen[td.Name] = true
		flags, err := d.u8()
		if err != nil {
			return nil, err
		}
		if flags > 3 {
			return nil, fmt.Errorf("%w: unknown delta type flags %#x", ErrCorrupt, flags)
		}
		level, err := d.u8()
		if err != nil {
			return nil, err
		}
		succ, err := d.u32()
		if err != nil {
			return nil, err
		}
		excl, err := d.u32()
		if err != nil {
			return nil, err
		}
		td.HasMeta = flags&2 != 0
		if td.HasMeta {
			td.Steady = flags&1 != 0
			if level > 15 {
				return nil, fmt.Errorf("%w: p level %d out of range", ErrCorrupt, level)
			}
			td.Level = int(level)
			td.Successes = int(succ)
			td.Excluded = int(excl)
		} else if flags != 0 || level != 0 || succ != 0 || excl != 0 {
			// Canonical form: an entry-target-only type carries no
			// payload, so accepted inputs re-encode byte-identically.
			return nil, fmt.Errorf("%w: meta fields set on meta-less delta type %q", ErrCorrupt, td.Name)
		}
		dl.Types = append(dl.Types, td)
	}
	nent, err := d.u32()
	if err != nil {
		return nil, err
	}
	// Grown by append (not preallocated) so an entry-less delta decodes
	// with a nil Entries slice, exactly as it was encoded.
	var inserts []core.DeltaEntry
	for j := uint32(0); j < nent; j++ {
		ti, err := d.u32()
		if err != nil {
			return nil, err
		}
		if int(ti) >= len(dl.Types) {
			return nil, fmt.Errorf("%w: entry %d references type %d of %d", ErrCorrupt, j, ti, len(dl.Types))
		}
		elen, err := d.u32()
		if err != nil {
			return nil, err
		}
		ebody, err := d.need(int(elen))
		if err != nil {
			return nil, err
		}
		sum, err := d.u32()
		if err != nil {
			return nil, err
		}
		if crc32.ChecksumIEEE(ebody) != sum {
			return nil, fmt.Errorf("%w: entry %d CRC mismatch", ErrCorrupt, j)
		}
		e, err := decodeEntry(ebody)
		if err != nil {
			return nil, fmt.Errorf("entry %d: %w", j, err)
		}
		inserts = append(inserts, core.DeltaEntry{Type: int(ti), EntrySnapshot: *e})
	}
	if d.remaining() == 0 {
		// No tombstone section: the operation stream is the inserts.
		dl.Entries = inserts
		return dl, nil
	}
	// Trailing bytes are the tombstone section — canonically present
	// only when non-empty, positions non-decreasing, everything
	// validated so accepted inputs re-encode byte-identically.
	ntomb, err := d.u32()
	if err != nil {
		return nil, err
	}
	if ntomb == 0 {
		return nil, fmt.Errorf("%w: empty tombstone section", ErrCorrupt)
	}
	dl.Entries = make([]core.DeltaEntry, 0, int(nent)+int(ntomb))
	next := 0 // inserts already emitted into the merged stream
	for j := uint32(0); j < ntomb; j++ {
		ti, err := d.u32()
		if err != nil {
			return nil, err
		}
		if int(ti) >= len(dl.Types) {
			return nil, fmt.Errorf("%w: tombstone %d references type %d of %d", ErrCorrupt, j, ti, len(dl.Types))
		}
		pos, err := d.u32()
		if err != nil {
			return nil, err
		}
		if int(pos) > len(inserts) || int(pos) < next {
			return nil, fmt.Errorf("%w: tombstone %d position %d out of order (%d inserts, previous position %d)",
				ErrCorrupt, j, pos, len(inserts), next)
		}
		key, err := d.u64()
		if err != nil {
			return nil, err
		}
		level, err := d.u8()
		if err != nil {
			return nil, err
		}
		if level > 15 {
			return nil, fmt.Errorf("%w: tombstone %d p level %d out of range", ErrCorrupt, j, level)
		}
		provider, err := d.u64()
		if err != nil {
			return nil, err
		}
		dl.Entries = append(dl.Entries, inserts[next:pos]...)
		next = int(pos)
		dl.Entries = append(dl.Entries, core.DeltaEntry{Type: int(ti), EntrySnapshot: core.EntrySnapshot{
			Key:       key,
			Level:     int8(level),
			Provider:  provider,
			Tombstone: true,
		}})
	}
	dl.Entries = append(dl.Entries, inserts[next:]...)
	if d.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d stray bytes in delta record", ErrCorrupt, d.remaining())
	}
	return dl, nil
}

// SaveChain writes a chain atomically and durably (same-directory temp
// file + fsync + rename + directory fsync): the package's one file
// writer, a whole-table save being SaveChain(path, snap, nil).
// SaveChainSync takes the SyncPolicy explicitly.
func SaveChain(path string, base *core.Snapshot, deltas []*core.Delta) error {
	return SaveChainSync(path, base, deltas, SyncAlways)
}

// SaveChainSync is SaveChain under an explicit durability policy.
func SaveChainSync(path string, base *core.Snapshot, deltas []*core.Delta, sync SyncPolicy) error {
	data, err := MarshalChain(base, deltas)
	if err != nil {
		return err
	}
	return writeAtomic(path, data, sync)
}

// LoadChain reads and decodes the snapshot file at path (UnmarshalChain:
// a chain's base, possibly nil, plus deltas in order; a version-1 file's
// base alone). A missing file surfaces as an error satisfying
// errors.Is(err, os.ErrNotExist) — a cold start.
func LoadChain(path string) (*core.Snapshot, []*core.Delta, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	base, deltas, err := UnmarshalChain(data)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return base, deltas, nil
}

// AppendDelta appends one delta record to an existing version-2 chain
// file in O(delta) I/O — the incremental save that keeps per-save cost
// proportional to the churn. The file's header (magic, version,
// fingerprint) is verified first; the body is not re-read. The append
// is one CRC-framed record, streamed out in chunks (writeDeltaRecord)
// and fsynced before return under SyncAlways. A write that fails
// partway is truncated back to the pre-append length, so a live I/O
// error never leaves a torn tail; a crash mid-append does, and that
// tail is exactly what SalvageChain truncates away — recovery keeps
// every record up to the tear instead of discarding the file
// (docs/persistence.md). AppendDeltaSync takes the SyncPolicy
// explicitly.
func AppendDelta(path string, d *core.Delta) error {
	return AppendDeltaSync(path, d, SyncAlways)
}

// AppendDeltaSync is AppendDelta under an explicit durability policy.
func AppendDeltaSync(path string, d *core.Delta, sync SyncPolicy) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	// Closed explicitly on every path: the success-path Close error is
	// part of the flush signal for the appended record.
	fail := func(err error) error {
		f.Close()
		return err
	}
	var head [headerLen]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return fail(fmt.Errorf("%s: %w: chain header", path, ErrTruncated))
	}
	ver, err := FileVersion(head[:])
	if err != nil {
		return fail(fmt.Errorf("%s: %w", path, err))
	}
	if ver != Version2 {
		return fail(fmt.Errorf("%s: %w: cannot append a delta to a version-%d file", path, ErrVersion, ver))
	}
	fp := binary.LittleEndian.Uint64(head[12:20])
	if fp != d.Fingerprint {
		return fail(fmt.Errorf("%s: chain fingerprint %#016x, delta %#016x", path, fp, d.Fingerprint))
	}
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return fail(err)
	}
	n, werr := failpoint.InjectPartial(FailpointAppend, recordOverhead+deltaBodySize(d))
	if err := writeDeltaRecord(&landWriter{w: f, n: n}, d); err != nil && werr == nil {
		werr = err
	}
	if werr != nil {
		// Undo the partial append (a failed write, or a delta that would
		// not encode) so the caller may simply retry; after a simulated
		// crash there is no process left to truncate, which is the torn
		// tail the salvage path exists for.
		if !crashed(werr) {
			f.Truncate(end)
		}
		return fail(werr)
	}
	if sync == SyncAlways {
		if err := failpoint.Inject(FailpointSync); err != nil {
			if !crashed(err) {
				f.Truncate(end)
			}
			return fail(err)
		}
		if err := f.Sync(); err != nil {
			// The record landed but its durability is unknown; back it
			// out so a retry cannot append it twice.
			f.Truncate(end)
			return fail(err)
		}
	}
	return f.Close()
}
