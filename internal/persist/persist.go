// Package persist defines the versioned external representation of a
// core memoization snapshot: the on-disk format that lets a process
// warm-start from a previous run's Task History Table instead of
// re-paying the training phase (ROADMAP: warm-start memoization for
// repeated experiment sweeps). Every save writes format version 2
// (chain.go): an appendable record stream of an optional full base plus
// incremental deltas, with Compact and MergeSnapshots to fold chains
// and combine sweep shards. A whole-table save is a chain holding one
// base record.
//
// Version 1, the earlier one-table-per-file layout, is read but never
// written: it is the version-2 header carrying version 1, followed by
// the body of a base record without record framing. The readers treat
// it as a chain of one base record that cannot be salvaged.
//
// Base bodies and delta inserts share one little-endian encoding of
// sections and entries:
//
//	base body: 3 × i64 IKT counters (inserts, defers, rejected)
//	           u32 section count, then sections, each:
//	             [4] u32 body length, then the body:
//	               u16 name length + name bytes
//	               u8 flags (bit 0: steady), u8 level
//	               u32 successes, u32 excluded-region count
//	               u32 entry count, then entries
//	entry:     [4] u32 body length, then the body:
//	             u64 key, u8 level, u64 provider id
//	             u16 output count + regions
//	             u16 input-snapshot count + regions
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

	"atm/internal/core"
	"atm/internal/region"
)

// Format versions. Version2 is the only one written; Version1 files
// still load, and the readers never rewrite them (harness chain mode
// rewrites one as a version-2 chain before its first append). Any other
// version is rejected: a snapshot is a cache, and a stale cache is
// discarded.
const (
	Version1 = 1
	Version2 = 2
)

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

// appendSectionBody appends sec's section body, its entries encoded in
// place.
func appendSectionBody(body []byte, sec *core.TypeSnapshot) ([]byte, error) {
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
	body = binary.LittleEndian.AppendUint32(body, uint32(sec.Excluded))
	if len(sec.Entries) > math.MaxUint32 {
		return nil, fmt.Errorf("persist: type %q: %d entries overflow the format", sec.Name, len(sec.Entries))
	}
	body = binary.LittleEndian.AppendUint32(body, uint32(len(sec.Entries)))
	for j := range sec.Entries {
		var err error
		if body, err = appendEntry(body, &sec.Entries[j]); err != nil {
			return nil, fmt.Errorf("persist: type %q entry %d: %w", sec.Name, j, err)
		}
	}
	return body, nil
}

// entrySize is the number of bytes appendEntry appends for e.
func entrySize(e *core.EntrySnapshot) int {
	n := 4 + 8 + 1 + 8 + 2 + 2 + 4 // length, key, level, provider, two region counts, CRC
	for _, rs := range [2][]region.Region{e.Outs, e.Ins} {
		for _, r := range rs {
			n += 1 + 4 + r.NumBytes()
		}
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
		// snapshot (or a v1 entry) carrying one is a caller bug.
		return nil, fmt.Errorf("tombstone entry in a full-entry encoding")
	}
	b = binary.LittleEndian.AppendUint64(b, e.Key)
	b = append(b, byte(e.Level))
	b = binary.LittleEndian.AppendUint64(b, e.Provider)
	for _, rs := range [2][]region.Region{e.Outs, e.Ins} {
		if len(rs) > math.MaxUint16 {
			return nil, fmt.Errorf("%d regions overflow the format", len(rs))
		}
		b = binary.LittleEndian.AppendUint16(b, uint16(len(rs)))
		for _, r := range rs {
			var err error
			b, err = appendRegion(b, r)
			if err != nil {
				return nil, err
			}
		}
	}
	return b, nil
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

func decodeSection(body []byte) (*core.TypeSnapshot, error) {
	d := &decoder{data: body}
	nlen, err := d.u16()
	if err != nil {
		return nil, err
	}
	name, err := d.need(int(nlen))
	if err != nil {
		return nil, err
	}
	sec := &core.TypeSnapshot{Name: string(name)}
	flags, err := d.u8()
	if err != nil {
		return nil, err
	}
	if flags > 1 {
		return nil, fmt.Errorf("%w: unknown section flags %#x", ErrCorrupt, flags)
	}
	sec.Steady = flags&1 != 0
	level, err := d.u8()
	if err != nil {
		return nil, err
	}
	if level > 15 {
		return nil, fmt.Errorf("%w: p level %d out of range", ErrCorrupt, level)
	}
	sec.Level = int(level)
	succ, err := d.u32()
	if err != nil {
		return nil, err
	}
	sec.Successes = int(succ)
	excl, err := d.u32()
	if err != nil {
		return nil, err
	}
	sec.Excluded = int(excl)
	nent, err := d.u32()
	if err != nil {
		return nil, err
	}
	for j := uint32(0); j < nent; j++ {
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
		sec.Entries = append(sec.Entries, *e)
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d stray bytes in section body", ErrCorrupt, d.remaining())
	}
	return sec, nil
}

func decodeEntry(body []byte) (*core.EntrySnapshot, error) {
	d := &decoder{data: body}
	e := &core.EntrySnapshot{}
	var err error
	if e.Key, err = d.u64(); err != nil {
		return nil, err
	}
	level, err := d.u8()
	if err != nil {
		return nil, err
	}
	if level > 15 {
		return nil, fmt.Errorf("%w: p level %d out of range", ErrCorrupt, level)
	}
	e.Level = int8(level)
	if e.Provider, err = d.u64(); err != nil {
		return nil, err
	}
	for _, dst := range []*[]region.Region{&e.Outs, &e.Ins} {
		n, err := d.u16()
		if err != nil {
			return nil, err
		}
		for k := uint16(0); k < n; k++ {
			r, err := decodeRegion(d)
			if err != nil {
				return nil, err
			}
			*dst = append(*dst, r)
		}
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d stray bytes in entry body", ErrCorrupt, d.remaining())
	}
	return e, nil
}

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
		for i := range r.Data {
			r.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
		}
		return r, nil
	case region.KindFloat32:
		r := region.NewFloat32(int(n))
		for i := range r.Data {
			r.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:]))
		}
		return r, nil
	case region.KindInt32:
		r := region.NewInt32(int(n))
		for i := range r.Data {
			r.Data[i] = int32(binary.LittleEndian.Uint32(payload[4*i:]))
		}
		return r, nil
	default:
		r := region.NewBytes(int(n))
		copy(r.Data, payload)
		return r, nil
	}
}
