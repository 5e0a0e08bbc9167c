// Package persist defines the versioned external representation of a
// core memoization snapshot: the on-disk format that lets a process
// warm-start from a previous run's Task History Table instead of
// re-paying the training phase (ROADMAP: warm-start memoization for
// repeated experiment sweeps). Every save writes format version 2
// (chain.go): an appendable record stream of an optional full base plus
// incremental deltas, with Compact and MergeSnapshots to fold chains
// and combine sweep shards. A whole-table save is a chain holding one
// base record. Any other version, the earlier version 1 included, is
// refused with ErrVersion.
//
// Base bodies and delta inserts share one little-endian encoding of
// sections and entries:
//
//	base body: 3 × i64 IKT counters (inserts, defers, rejected)
//	           u32 section count, then sections, each:
//	             [4] u32 body length, then the body:
//	               u16 name length + name bytes
//	               u8 flags (bit 0: steady), u8 level
//	               u32 successes, u32 reserved (0; non-zero is ErrCorrupt)
//	               u32 entry count, then entries
//	entry:     [4] u32 body length, then the body:
//	             u64 key, u8 level, u64 provider id
//	             u16 output count + regions
//	             u16 input-region count, always 0 (non-zero is ErrCorrupt)
//	           [4] u32 CRC-32 (IEEE) of the entry body
//	region:    u8 kind, u32 element count, raw little-endian payload
//
// Decoding is strict: every length prefix must match its content
// exactly, every enum must be in range, every entry CRC must verify,
// and no trailing bytes are tolerated. Violations surface as typed
// errors (ErrBadMagic, ErrVersion, ErrTruncated, ErrCorrupt) — never a
// panic and never a silently mis-decoded snapshot. Version or
// fingerprint skew therefore degrades a warm start into a cold one
// with a diagnosable error, not into wrong hits.
//
// Writes are crash-consistent (docs/persistence.md): whole-file saves
// publish through an fsynced temp file + rename + parent-directory
// sync, delta appends fsync the record and self-truncate on any live
// failure so a retry never double-appends, and a torn tail left by a
// real crash is recovered by SalvageChain/RepairChain, which truncate
// to the last valid CRC-framed record boundary — salvage recovers from
// missing bytes, never wrong ones. SyncPolicy (SyncAlways/SyncOff)
// trades that durability for throughput per call site.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"unsafe"

	"atm/internal/core"
	"atm/internal/region"
)

// Version2 is the format version every save writes and every reader
// accepts. Any other version is rejected with ErrVersion: a snapshot is
// a cache, and a stale cache is discarded.
const Version2 = 2

// magic identifies a snapshot file. The trailing NUL guards against
// text files that happen to start with the same letters.
var magic = [8]byte{'A', 'T', 'M', 'S', 'N', 'A', 'P', 0}

// HasMagic reports whether data begins with the snapshot file
// signature — the sniff directory-scrub tooling uses to pick snapshot
// files out of a mixed directory without decoding them.
func HasMagic(data []byte) bool {
	return len(data) >= len(magic) && [8]byte(data[:8]) == magic
}

// Typed decode errors. Decode wraps them with positional detail; test
// with errors.Is.
var (
	ErrBadMagic  = errors.New("persist: not an ATM snapshot (bad magic)")
	ErrVersion   = errors.New("persist: unsupported snapshot format version")
	ErrTruncated = errors.New("persist: truncated snapshot")
	ErrCorrupt   = errors.New("persist: corrupt snapshot")
)

// sectionBodySize is the number of bytes appendSectionBody appends for
// sec.
func sectionBodySize(sec *core.TypeSnapshot) int {
	n := 2 + len(sec.Name) + 1 + 1 + 4 + 4 + 4 // name, flags, level, successes, reserved, entry count
	for j := range sec.Entries {
		n += entrySize(&sec.Entries[j])
	}
	return n
}

// appendSectionBody appends sec's section body, its entries encoded in
// place. A non-nil flush is handed the bytes so far between two entries
// whenever streamChunk of them have gathered (appendDeltaBody).
func appendSectionBody(body []byte, sec *core.TypeSnapshot, flush flushFunc) ([]byte, error) {
	if len(sec.Name) > math.MaxUint16 {
		return nil, fmt.Errorf("persist: type name %q overflows the format", sec.Name[:32])
	}
	body = binary.LittleEndian.AppendUint16(body, uint16(len(sec.Name)))
	body = append(body, sec.Name...)
	var flags byte
	if sec.Steady {
		flags |= 1
	}
	body = append(body, flags, byte(sec.Level))
	body = binary.LittleEndian.AppendUint32(body, uint32(sec.Successes))
	body = binary.LittleEndian.AppendUint32(body, 0) // reserved
	if len(sec.Entries) > math.MaxUint32 {
		return nil, fmt.Errorf("persist: type %q: %d entries overflow the format", sec.Name, len(sec.Entries))
	}
	body = binary.LittleEndian.AppendUint32(body, uint32(len(sec.Entries)))
	for j := range sec.Entries {
		var err error
		if body, err = appendEntry(body, &sec.Entries[j]); err != nil {
			return nil, fmt.Errorf("persist: type %q entry %d: %w", sec.Name, j, err)
		}
		if body, err = flushAt(body, flush); err != nil {
			return nil, err
		}
	}
	return body, nil
}

// entrySize is the number of bytes appendEntry appends for e.
func entrySize(e *core.EntrySnapshot) int {
	n := 4 + 8 + 1 + 8 + 2 + 2 + 4 // length, key, level, provider, two region counts, CRC
	for _, r := range e.Outs {
		n += 1 + 4 + r.NumBytes()
	}
	return n
}

// appendEntry appends e's length-prefixed, CRC-suffixed entry. The body
// is encoded in place behind a reserved length field, which is patched
// once the body's size is known, so an entry costs no scratch copy.
func appendEntry(b []byte, e *core.EntrySnapshot) ([]byte, error) {
	at := len(b)
	b, err := appendEntryBody(append(b, 0, 0, 0, 0), e)
	if err != nil {
		return nil, err
	}
	body := b[at+4:]
	if len(body) > math.MaxUint32 {
		return nil, fmt.Errorf("%d-byte body overflows the format", len(body))
	}
	binary.LittleEndian.PutUint32(b[at:], uint32(len(body)))
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(body)), nil
}

func appendEntryBody(b []byte, e *core.EntrySnapshot) ([]byte, error) {
	if e.Tombstone {
		// Tombstones exist only in delta operation streams, where they
		// are serialized by the chain format's tombstone section; a full
		// snapshot carrying one is a caller bug.
		return nil, fmt.Errorf("tombstone entry in a full-entry encoding")
	}
	b = binary.LittleEndian.AppendUint64(b, e.Key)
	b = append(b, byte(e.Level))
	b = binary.LittleEndian.AppendUint64(b, e.Provider)
	if len(e.Outs) > math.MaxUint16 {
		return nil, fmt.Errorf("%d regions overflow the format", len(e.Outs))
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(e.Outs)))
	for _, r := range e.Outs {
		var err error
		b, err = appendRegion(b, r)
		if err != nil {
			return nil, err
		}
	}
	// The input-region count: always 0, and decodeEntry refuses any
	// other value.
	return binary.LittleEndian.AppendUint16(b, 0), nil
}

func appendRegion(b []byte, r region.Region) ([]byte, error) {
	if r.NumElems() > math.MaxUint32 {
		return nil, fmt.Errorf("region with %d elements overflows the format", r.NumElems())
	}
	b = append(b, byte(r.Kind()))
	b = binary.LittleEndian.AppendUint32(b, uint32(r.NumElems()))
	switch r := r.(type) {
	case *region.Float64:
		for _, v := range r.Data {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	case *region.Float32:
		for _, v := range r.Data {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
	case *region.Int32:
		for _, v := range r.Data {
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
	case *region.Bytes:
		b = append(b, r.Data...)
	default:
		return nil, fmt.Errorf("unsupported region type %T", r)
	}
	return b, nil
}

// decoder is a bounds-checked cursor over an in-memory buffer. Every
// read validates the remaining length first, so decoding can never panic
// on arbitrary input, and allocation sizes are implied by (and checked
// against) the bytes actually present.
type decoder struct {
	data []byte
	off  int
}

func (d *decoder) remaining() int { return len(d.data) - d.off }

func (d *decoder) need(n int) ([]byte, error) {
	if n < 0 || d.remaining() < n {
		return nil, fmt.Errorf("%w: need %d bytes at offset %d, have %d", ErrTruncated, n, d.off, d.remaining())
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b, nil
}

func (d *decoder) u8() (byte, error) {
	b, err := d.need(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (d *decoder) u16() (uint16, error) {
	b, err := d.need(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (d *decoder) u32() (uint32, error) {
	b, err := d.need(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (d *decoder) u64() (uint64, error) {
	b, err := d.need(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// Smallest encodings of the counted items. A count is checked against
// the bytes left in its body before anything is sized from it, so a
// hostile count in a few bytes costs nothing: a slice is presized to
// at most what the remaining bytes could hold, and the decode loop
// then fails at the first item that is not there, with the same error
// it always did.
const (
	minSectionLen = 4 + 2 + 1 + 1 + 4 + 4 + 4 // body length, then an empty section
	minEntryLen   = 4 + 8 + 1 + 8 + 2 + 2 + 4 // body length, empty entry, CRC
	minRegionLen  = 1 + 4                     // kind, element count
	minTypeRowLen = 2 + 1 + 1 + 4 + 4         // delta type row, empty name
	minInsertLen  = 4 + minEntryLen           // type index, entry
	tombstoneLen  = 4 + 4 + 8 + 1 + 8         // type index, position, key, level, provider
)

// capFor is how many items of at least size bytes each a slice decoded
// from the remaining bytes of d is presized for: n, unless the bytes
// left cannot hold n of them.
func capFor(d *decoder, n uint32, size int) int {
	return int(min(uint64(n), uint64(d.remaining()/size)))
}

// decodeSection decodes a section body into sec, its entries in place
// in one slice presized from the section's entry count.
func decodeSection(sec *core.TypeSnapshot, body []byte) error {
	d := &decoder{data: body}
	nlen, err := d.u16()
	if err != nil {
		return err
	}
	name, err := d.need(int(nlen))
	if err != nil {
		return err
	}
	sec.Name = string(name)
	flags, err := d.u8()
	if err != nil {
		return err
	}
	if flags > 1 {
		return fmt.Errorf("%w: unknown section flags %#x", ErrCorrupt, flags)
	}
	sec.Steady = flags&1 != 0
	level, err := d.u8()
	if err != nil {
		return err
	}
	if level > 15 {
		return fmt.Errorf("%w: p level %d out of range", ErrCorrupt, level)
	}
	sec.Level = int(level)
	succ, err := d.u32()
	if err != nil {
		return err
	}
	sec.Successes = int(succ)
	reserved, err := d.u32()
	if err != nil {
		return err
	}
	if reserved != 0 {
		return fmt.Errorf("%w: section %q sets reserved word %d", ErrCorrupt, sec.Name, reserved)
	}
	nent, err := d.u32()
	if err != nil {
		return err
	}
	if nent > 0 {
		sec.Entries = make([]core.EntrySnapshot, 0, capFor(d, nent, minEntryLen))
	}
	for j := uint32(0); j < nent; j++ {
		ebody, err := entryBody(d, j)
		if err != nil {
			return err
		}
		sec.Entries = append(sec.Entries, core.EntrySnapshot{})
		if err := decodeEntry(&sec.Entries[j], ebody); err != nil {
			return fmt.Errorf("entry %d: %w", j, err)
		}
	}
	if d.remaining() != 0 {
		return fmt.Errorf("%w: %d stray bytes in section body", ErrCorrupt, d.remaining())
	}
	return nil
}

// entryBody reads entry j's length-prefixed body and verifies its CRC.
func entryBody(d *decoder, j uint32) ([]byte, error) {
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
	return ebody, nil
}

// decodeEntry decodes an entry body into e, which must be zero.
func decodeEntry(e *core.EntrySnapshot, body []byte) error {
	d := &decoder{data: body}
	var err error
	if e.Key, err = d.u64(); err != nil {
		return err
	}
	level, err := d.u8()
	if err != nil {
		return err
	}
	if level > 15 {
		return fmt.Errorf("%w: p level %d out of range", ErrCorrupt, level)
	}
	e.Level = int8(level)
	if e.Provider, err = d.u64(); err != nil {
		return err
	}
	n, err := d.u16()
	if err != nil {
		return err
	}
	if n > 0 {
		e.Outs = make([]region.Region, 0, capFor(d, uint32(n), minRegionLen))
	}
	for k := uint16(0); k < n; k++ {
		r, err := decodeRegion(d)
		if err != nil {
			return err
		}
		e.Outs = append(e.Outs, r)
	}
	nins, err := d.u16()
	if err != nil {
		return err
	}
	if nins != 0 {
		return fmt.Errorf("%w: entry declares %d input regions", ErrCorrupt, nins)
	}
	if d.remaining() != 0 {
		return fmt.Errorf("%w: %d stray bytes in entry body", ErrCorrupt, d.remaining())
	}
	return nil
}

// decodeRegion decodes one region. Its payload is copied out of the
// decoder's buffer (decodeWords), so no decoded region aliases it.
func decodeRegion(d *decoder) (region.Region, error) {
	kind, err := d.u8()
	if err != nil {
		return nil, err
	}
	if kind > byte(region.KindInt32) {
		return nil, fmt.Errorf("%w: unknown region kind %d", ErrCorrupt, kind)
	}
	n, err := d.u32()
	if err != nil {
		return nil, err
	}
	payload, err := d.need(int(n) * region.Kind(kind).Size())
	if err != nil {
		return nil, err
	}
	switch region.Kind(kind) {
	case region.KindFloat64:
		r := region.NewFloat64(int(n))
		decodeWords(r.Data, payload)
		return r, nil
	case region.KindFloat32:
		r := region.NewFloat32(int(n))
		decodeWords(r.Data, payload)
		return r, nil
	case region.KindInt32:
		r := region.NewInt32(int(n))
		decodeWords(r.Data, payload)
		return r, nil
	default:
		r := region.NewBytes(int(n))
		copy(r.Data, payload)
		return r, nil
	}
}

// word is a region element type of a fixed-width numeric kind.
type word interface{ float64 | float32 | int32 }

// littleEndian reports whether the host stores words in the format's
// byte order.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// decodeWords fills dst from its little-endian encoding in src
// (len(src) == len(dst) × the element size): on a little-endian host
// the encoding is the memory image, so one copy does it.
func decodeWords[T word](dst []T, src []byte) {
	if littleEndian {
		copyWords(dst, src)
	} else {
		loopWords(dst, src)
	}
}

// copyWords is decodeWords on a little-endian host.
func copyWords[T word](dst []T, src []byte) {
	if len(dst) > 0 {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&dst[0])), len(src)), src)
	}
}

// loopWords is decodeWords on any host, element by element.
func loopWords[T word](dst []T, src []byte) {
	switch dst := any(dst).(type) {
	case []float64:
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
		}
	case []float32:
		for i := range dst {
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
		}
	case []int32:
		for i := range dst {
			dst[i] = int32(binary.LittleEndian.Uint32(src[4*i:]))
		}
	}
}
