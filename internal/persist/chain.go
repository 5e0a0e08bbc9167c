package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"runtime/debug"
	"unsafe"

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
//	               u32 successes, u32 reserved (0; non-zero is ErrCorrupt)
//	               (the three meta fields must be zero when has-meta is
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

// Record kinds.
const (
	recordBase  = 1
	recordDelta = 2
)

// headerLen is magic + version + fingerprint.
const headerLen = 8 + 4 + 8

// FileVersion reads the format version from an encoded snapshot
// header without decoding the rest: what snapshotctl inspect reports,
// and how AppendDelta refuses a file of another version.
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
// fingerprint, and the chain must not be empty. It is the chain encoder
// SaveChain streams to a file, run into one buffer of the chain's size.
func MarshalChain(base *core.Snapshot, deltas []*core.Delta) ([]byte, error) {
	fp, err := chainFingerprint(base, deltas)
	if err != nil {
		return nil, err
	}
	c := &chainWriter{buf: make([]byte, 0, chainSize(base, deltas))}
	if err := c.chain(fp, base, deltas); err != nil {
		return nil, err
	}
	return c.buf, nil
}

// writeChain streams the chain MarshalChain encodes to w through a
// buffer of about streamChunk bytes.
func writeChain(w io.Writer, base *core.Snapshot, deltas []*core.Delta) error {
	fp, err := chainFingerprint(base, deltas)
	if err != nil {
		return err
	}
	c := newChainWriter(w, chainSize(base, deltas))
	if err := c.chain(fp, base, deltas); err != nil {
		return err
	}
	return c.close()
}

// chainFingerprint is the one config fingerprint every part of a chain
// must carry.
func chainFingerprint(base *core.Snapshot, deltas []*core.Delta) (uint64, error) {
	var fp uint64
	switch {
	case base != nil:
		fp = base.Fingerprint
	case len(deltas) > 0:
		fp = deltas[0].Fingerprint
	default:
		return 0, fmt.Errorf("persist: empty chain (no base, no deltas)")
	}
	for i, d := range deltas {
		if d.Fingerprint != fp {
			return 0, fmt.Errorf("persist: delta %d fingerprint %#016x differs from chain %#016x", i, d.Fingerprint, fp)
		}
	}
	return fp, nil
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

// recordOverhead is a record's framing: kind, body length, body CRC.
const recordOverhead = 1 + 4 + 4

// streamChunk is how much of a chain a chainWriter with a writer
// gathers between writes.
const streamChunk = 256 << 10

// chainWriter is the one chain encoder. It appends the header and framed
// records to buf; with a writer w, the body encoders hand it the bytes
// so far between two entries whenever streamChunk of them have gathered
// (flush), and it writes them out and carries on in the same buffer, so
// what a save holds in memory is one chunk, not a copy of the file.
// Without one (MarshalChain) every byte stays in buf. A record's length
// field comes from its size, computed up front, and its CRC is summed
// as the body's bytes leave.
type chainWriter struct {
	w   io.Writer
	buf []byte
	// Of the record being encoded: body is where its unsummed body bytes
	// start in buf, sum the CRC-32 of its body bytes already written out,
	// n their number.
	body int
	sum  uint32
	n    int
}

// newChainWriter is a chainWriter streaming to w a chain of size bytes:
// its buffer holds a chunk, or all of a smaller chain, so a chain under a
// chunk long is a single Write.
func newChainWriter(w io.Writer, size int) *chainWriter {
	return &chainWriter{w: w, buf: make([]byte, 0, min(size, streamChunk+streamChunk/8))}
}

// chain encodes the header and the chain's records.
func (c *chainWriter) chain(fp uint64, base *core.Snapshot, deltas []*core.Delta) error {
	c.buf = append(c.buf, magic[:]...)
	c.buf = binary.LittleEndian.AppendUint32(c.buf, Version2)
	c.buf = binary.LittleEndian.AppendUint64(c.buf, fp)
	if base != nil {
		err := c.record(recordBase, baseBodySize(base), func(b []byte, flush flushFunc) ([]byte, error) {
			return appendBaseBody(b, base, flush)
		})
		if err != nil {
			return err
		}
	}
	for i, d := range deltas {
		if err := c.delta(d); err != nil {
			return fmt.Errorf("persist: delta %d: %w", i, err)
		}
	}
	return nil
}

// delta encodes d's record.
func (c *chainWriter) delta(d *core.Delta) error {
	return c.record(recordDelta, deltaBodySize(d), func(b []byte, flush flushFunc) ([]byte, error) {
		return appendDeltaBody(b, d, flush)
	})
}

// flushFunc is a body encoder's flush: handed the buffer so far, between
// two entries, it returns the buffer to carry on in.
type flushFunc func([]byte) ([]byte, error)

// record encodes one framed record of kind whose body, size bytes long,
// fill appends.
func (c *chainWriter) record(kind byte, size int, fill func(b []byte, flush flushFunc) ([]byte, error)) error {
	if size > math.MaxUint32 {
		return fmt.Errorf("persist: %d-byte record body overflows the format", size)
	}
	c.buf = append(c.buf, kind)
	c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(size))
	c.body, c.sum, c.n = len(c.buf), 0, 0
	var flush flushFunc
	if c.w != nil {
		flush = c.flush
	}
	b, err := fill(c.buf, flush)
	if err != nil {
		return err
	}
	c.note(b)
	if c.n != size {
		return fmt.Errorf("persist: record body encoded to %d bytes, sized as %d", c.n, size)
	}
	c.buf = binary.LittleEndian.AppendUint32(b, c.sum)
	return nil
}

// note sums the open record's body bytes in b that are not summed yet.
func (c *chainWriter) note(b []byte) {
	c.sum = crc32.Update(c.sum, crc32.IEEETable, b[c.body:])
	c.n += len(b) - c.body
	c.body = len(b)
}

// flush writes b out and hands back its emptied buffer.
func (c *chainWriter) flush(b []byte) ([]byte, error) {
	c.note(b)
	c.body = 0
	_, err := c.w.Write(b)
	return b[:0], err
}

// close writes out what is left in the buffer.
func (c *chainWriter) close() error {
	_, err := c.w.Write(c.buf)
	c.buf = c.buf[:0]
	return err
}

// writeDeltaRecord writes d's framed record to w through a chainWriter:
// a delta append holds one chunk, not a second copy of everything
// inserted since the last save, and a record under a chunk long is
// still a single Write.
func writeDeltaRecord(w io.Writer, d *core.Delta) error {
	c := newChainWriter(w, recordOverhead+deltaBodySize(d))
	if err := c.delta(d); err != nil {
		return err
	}
	return c.close()
}

// DeltaRecordSize is the number of bytes AppendDelta appends for d,
// framing included.
func DeltaRecordSize(d *core.Delta) int64 {
	return int64(recordOverhead + deltaBodySize(d))
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
		n += 4 + sectionBodySize(&s.Types[i]) // length, body
	}
	return n
}

// appendBaseBody appends s's body to body. Each section's length is
// computed up front (sectionBodySize), so the body streams: a non-nil
// flush is handed the bytes so far between two entries, as
// appendDeltaBody's is.
func appendBaseBody(body []byte, s *core.Snapshot, flush flushFunc) ([]byte, error) {
	body = binary.LittleEndian.AppendUint64(body, uint64(s.IKT.Inserts))
	body = binary.LittleEndian.AppendUint64(body, uint64(s.IKT.Defers))
	body = binary.LittleEndian.AppendUint64(body, uint64(s.IKT.Rejected))
	if len(s.Types) > math.MaxUint32 {
		return nil, fmt.Errorf("persist: %d sections overflow the format", len(s.Types))
	}
	body = binary.LittleEndian.AppendUint32(body, uint32(len(s.Types)))
	for i := range s.Types {
		sec := &s.Types[i]
		n := sectionBodySize(sec)
		if n > math.MaxUint32 {
			return nil, fmt.Errorf("persist: type %q: %d-byte section overflows the format", sec.Name, n)
		}
		var err error
		body, err = appendSectionBody(binary.LittleEndian.AppendUint32(body, uint32(n)), sec, flush)
		if err != nil {
			return nil, err
		}
	}
	return body, nil
}

// appendDeltaBody appends d's body to body. A non-nil flush is handed
// the bytes so far between two entries (or tombstones) whenever
// streamChunk of them have gathered, and returns the buffer to carry on
// in, so a file append streams the body through a bounded buffer
// instead of holding it whole.
func appendDeltaBody(body []byte, d *core.Delta, flush flushFunc) ([]byte, error) {
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
		body = binary.LittleEndian.AppendUint32(body, 0) // reserved
	}
	if len(d.Entries) > math.MaxUint32 {
		return nil, fmt.Errorf("%d delta entries overflow the format", len(d.Entries))
	}
	// The operation stream splits into the insert list and a trailing
	// tombstone section; each tombstone records its position (inserts
	// preceding it) so the decoder rebuilds the exact interleave.
	inserts, tombs := 0, 0
	for i := range d.Entries {
		de := &d.Entries[i]
		if de.Type < 0 || de.Type >= len(d.Types) {
			return nil, fmt.Errorf("entry %d references type %d of %d", i, de.Type, len(d.Types))
		}
		if de.Tombstone {
			tombs++
		} else {
			inserts++
		}
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
		if body, err = flushAt(body, flush); err != nil {
			return nil, err
		}
	}
	// The tombstone section is emitted only when non-empty, so a delta
	// without evictions encodes exactly as it always has.
	if tombs == 0 {
		return body, nil
	}
	body = binary.LittleEndian.AppendUint32(body, uint32(tombs))
	pos := 0
	for i := range d.Entries {
		de := &d.Entries[i]
		if !de.Tombstone {
			pos++
			continue
		}
		body = binary.LittleEndian.AppendUint32(body, uint32(de.Type))
		body = binary.LittleEndian.AppendUint32(body, uint32(pos))
		body = binary.LittleEndian.AppendUint64(body, de.Key)
		body = append(body, byte(de.Level))
		body = binary.LittleEndian.AppendUint64(body, de.Provider)
		var err error
		if body, err = flushAt(body, flush); err != nil {
			return nil, err
		}
	}
	return body, nil
}

// flushAt hands body to a non-nil flush once streamChunk bytes have
// gathered, and returns the buffer to carry on in.
func flushAt(body []byte, flush flushFunc) ([]byte, error) {
	if flush == nil || len(body) < streamChunk {
		return body, nil
	}
	return flush(body)
}

// UnmarshalChain decodes a chain, strictly (see the layout comment for
// the one record-boundary caveat). The returned base is nil for a
// delta-only file.
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
// salvageable.
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
	if ver != Version2 {
		return nil, nil, 0, false, fmt.Errorf("%w: file version %d, want %d", ErrVersion, ver, Version2)
	}
	fp, err := d.u64()
	if err != nil {
		return nil, nil, 0, false, err
	}
	boundary = d.off
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
	if nsec > 0 {
		s.Types = make([]core.TypeSnapshot, 0, capFor(d, nsec, minSectionLen))
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
		s.Types = append(s.Types, core.TypeSnapshot{})
		sec := &s.Types[i]
		if err := decodeSection(sec, sb); err != nil {
			return nil, fmt.Errorf("section %d: %w", i, err)
		}
		if seen[sec.Name] {
			return nil, fmt.Errorf("%w: duplicate section for type %q", ErrCorrupt, sec.Name)
		}
		seen[sec.Name] = true
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
	if ntypes > 0 {
		dl.Types = make([]core.TypeDelta, 0, capFor(d, ntypes, minTypeRowLen))
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
		reserved, err := d.u32()
		if err != nil {
			return nil, err
		}
		if reserved != 0 {
			return nil, fmt.Errorf("%w: delta type %q sets reserved word %d", ErrCorrupt, td.Name, reserved)
		}
		td.HasMeta = flags&2 != 0
		if td.HasMeta {
			td.Steady = flags&1 != 0
			if level > 15 {
				return nil, fmt.Errorf("%w: p level %d out of range", ErrCorrupt, level)
			}
			td.Level = int(level)
			td.Successes = int(succ)
		} else if flags != 0 || level != 0 || succ != 0 {
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
	// Left nil without inserts, so an entry-less delta decodes with a
	// nil Entries slice, exactly as it was encoded.
	var inserts []core.DeltaEntry
	if nent > 0 {
		inserts = make([]core.DeltaEntry, 0, capFor(d, nent, minInsertLen))
	}
	for j := uint32(0); j < nent; j++ {
		ti, err := d.u32()
		if err != nil {
			return nil, err
		}
		if int(ti) >= len(dl.Types) {
			return nil, fmt.Errorf("%w: entry %d references type %d of %d", ErrCorrupt, j, ti, len(dl.Types))
		}
		ebody, err := entryBody(d, j)
		if err != nil {
			return nil, err
		}
		inserts = append(inserts, core.DeltaEntry{Type: int(ti)})
		if err := decodeEntry(&inserts[j].EntrySnapshot, ebody); err != nil {
			return nil, fmt.Errorf("entry %d: %w", j, err)
		}
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
	dl.Entries = make([]core.DeltaEntry, 0, len(inserts)+capFor(d, ntomb, tombstoneLen))
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

// SaveChainSync is SaveChain under an explicit durability policy. The
// chain streams into the temp file through one chunk of about 256 KiB
// (writeChain): a save holds no whole-file copy of what it writes.
func SaveChainSync(path string, base *core.Snapshot, deltas []*core.Delta, sync SyncPolicy) error {
	if _, err := chainFingerprint(base, deltas); err != nil {
		return err // refused before any file is touched
	}
	return writeAtomic(path, chainSize(base, deltas), func(w io.Writer) error {
		return writeChain(w, base, deltas)
	}, sync)
}

// ChainSizes reports the layout of the version-2 chain file at path
// without decoding it: the bytes of its base record, framing included
// (0 when the file starts with a delta), and the bytes of the records
// after it. A save weighs them to choose between appending a delta and
// rewriting the chain as one base.
func ChainSizes(path string) (base, tail int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	var head [headerLen + 5]byte // header, then the first record's kind and length
	n, _ := io.ReadFull(f, head[:])
	if n < headerLen {
		return 0, 0, fmt.Errorf("%s: %w: chain header", path, ErrTruncated)
	}
	ver, err := FileVersion(head[:])
	if err != nil {
		return 0, 0, fmt.Errorf("%s: %w", path, err)
	}
	if ver != Version2 {
		return 0, 0, fmt.Errorf("%s: %w: file version %d, want %d", path, ErrVersion, ver, Version2)
	}
	rest := st.Size() - headerLen
	if n == len(head) && head[headerLen] == recordBase {
		base = min(recordOverhead+int64(binary.LittleEndian.Uint32(head[headerLen+1:])), rest)
	}
	return base, rest - base, nil
}

// LoadChain reads and decodes the snapshot file at path (UnmarshalChain:
// a chain's base, possibly nil, plus deltas in order). A missing file
// surfaces as an error satisfying errors.Is(err, os.ErrNotExist) — a
// cold start. The file is read through decodeFile: mapped where that
// is supported, and nothing returned aliases it.
func LoadChain(path string) (*core.Snapshot, []*core.Delta, error) {
	var base *core.Snapshot
	var deltas []*core.Delta
	err := decodeFile(path, func(data []byte) (err error) {
		base, deltas, err = UnmarshalChain(data)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return base, deltas, nil
}

// decodeFile hands decode the bytes of the file at path, and wraps a
// decode error with the path (an open or read error already names it).
// A non-empty regular file is mapped read-only for the call and
// unmapped after it (mapFile; decode must copy out whatever it keeps),
// and anything else — an empty file, a directory, a system without
// mappings, a failed mapping — is read into memory with os.ReadFile.
func decodeFile(path string, decode func(data []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	data, err := mapFile(f)
	f.Close()
	if err == nil && data != nil {
		defer unmapFile(data)
		if mappedHook != nil {
			mappedHook(path)
		}
	} else if data, err = os.ReadFile(path); err != nil {
		return err
	}
	if err := decodeGuarded(data, decode); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// mappedHook, when set, runs between mapping a file and decoding it:
// the seam a test uses to shrink the file under the decoder.
var mappedHook func(path string)

// decodeGuarded runs decode over data with memory faults turned into
// errors. A mapped file that shrinks under the decoder faults (SIGBUS)
// on the pages it lost; that becomes an ErrTruncated error naming the
// offset instead of killing the process. Any other panic is re-raised.
func decodeGuarded(data []byte, decode func(data []byte) error) (err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		fault, ok := r.(interface{ Addr() uintptr })
		if !ok {
			panic(r)
		}
		at := fault.Addr() - uintptr(unsafe.Pointer(unsafe.SliceData(data)))
		err = fmt.Errorf("%w: file shrank under the decoder (fault at offset %d)", ErrTruncated, at)
	}()
	return decode(data)
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
