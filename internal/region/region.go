// Package region provides typed data regions: the unit of task data in the
// runtime system.
//
// In the paper's system the Mercurium compiler passes the element types of
// every task input and output to the Nanos++ runtime (§III-C: "we have
// extended the runtime library API and modified the compiler to inform the
// runtime system about the types of the elements in each data input and
// output"). This package plays that role: a Region carries both the data
// and its element kind, so ATM can
//
//   - decompose inputs into bytes for hash-key sampling without unsafe
//     memory reinterpretation (ByteAt),
//   - apply type-aware most-significant-byte-first input selection
//     (ElemSize + byte significance),
//   - copy memoized outputs (CopyFrom / Clone), and
//   - measure task output distances (Float64At) for the Chebyshev and
//     Euclidean error metrics.
//
// Region identity (the interface value, always a pointer) is also the unit
// of dependence tracking in the task runtime, standing in for the address
// ranges OmpSs uses.
package region

import (
	"fmt"
	"math"
)

// Kind identifies the element type stored in a region.
type Kind uint8

// Element kinds. They mirror the C types of the evaluated benchmarks
// (float, double and int per Table I).
const (
	KindBytes   Kind = iota // raw bytes, element size 1
	KindFloat32             // C float, element size 4
	KindFloat64             // C double, element size 8
	KindInt32               // C int, element size 4
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindBytes:
		return "bytes"
	case KindFloat32:
		return "float32"
	case KindFloat64:
		return "float64"
	case KindInt32:
		return "int32"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Size returns the element size in bytes for the kind.
func (k Kind) Size() int {
	switch k {
	case KindFloat64:
		return 8
	case KindFloat32, KindInt32:
		return 4
	default:
		return 1
	}
}

// Region is a typed block of task data. Implementations are pointers, so a
// Region value is usable as a map key identifying the block (the
// dependence-tracking unit).
//
// Byte numbering: byte i belongs to element i/ElemSize; within an element,
// offset 0 is the LEAST significant byte (little-endian convention, as on
// the paper's x86 machine). The most significant byte of element e is
// therefore ByteAt(e*ElemSize + ElemSize - 1).
type Region interface {
	// Kind reports the element kind.
	Kind() Kind
	// NumElems reports the number of elements.
	NumElems() int
	// NumBytes reports the total payload size in bytes
	// (NumElems * Kind().Size()).
	NumBytes() int
	// ByteAt returns byte i of the little-endian encoding of the payload.
	ByteAt(i int) byte
	// Float64At returns element i converted to float64, for error metrics.
	Float64At(i int) float64
	// CopyFrom copies the payload of src, which must have the same kind
	// and length, into the receiver. It is the memoization output copy.
	CopyFrom(src Region)
	// Clone returns a deep copy with the same kind and contents; used to
	// snapshot task outputs into the Task History Table.
	Clone() Region
	// EqualContents reports whether o has identical kind, length and
	// bit-exact contents.
	EqualContents(o Region) bool
	// HashInto feeds every payload byte, in order, to sink. It is the
	// p = 100% fallback path.
	HashInto(sink func(b byte))
	// HashWords feeds the payload to sink word-wise, producing the same
	// little-endian byte stream as HashInto with far fewer calls. It is
	// the p = 100% fast path.
	HashWords(sink WordSink)
	// HashSample feeds the bytes at the given ascending local byte
	// offsets to sink: the sampled-hash (p < 100%) fast path.
	HashSample(offsets []int32, sink WordSink)
	// HashSampleRuns feeds the bytes described by runs — flattened
	// (start, length) pairs of contiguous ascending byte offsets — to
	// sink, emitting word-wide writes for long runs. Type-aware MSB
	// selection produces such runs wholesale once p reaches the top
	// byte-significance ranks (§III-C); the byte stream is identical to
	// HashSample over the expanded offsets.
	HashSampleRuns(runs []int32, sink WordSink)
	// DepSlotHeader returns the region's dependence-state slot, where
	// the task runtime keeps the region's dependence history. Embedding
	// DepSlot provides it.
	DepSlotHeader() *DepSlot
}

// WordSink consumes a little-endian byte stream word-by-word.
// hashx.Hasher, the engine's key hasher, satisfies it.
type WordSink interface {
	WriteByte(b byte) error
	WriteUint32(u uint32)
	WriteUint64(u uint64)
}

// Float64 is a Region over []float64. The embedded DepSlot lets the task
// runtime resolve dependence state without a registry map probe (true of
// every region; see DepSlot).
type Float64 struct {
	DepSlot
	Data []float64
}

// NewFloat64 allocates a float64 region with n elements.
func NewFloat64(n int) *Float64 { return &Float64{Data: make([]float64, n)} }

// WrapFloat64 wraps an existing slice without copying.
func WrapFloat64(d []float64) *Float64 { return &Float64{Data: d} }

// Kind implements Region.
func (r *Float64) Kind() Kind { return KindFloat64 }

// NumElems implements Region.
func (r *Float64) NumElems() int { return len(r.Data) }

// NumBytes implements Region.
func (r *Float64) NumBytes() int { return 8 * len(r.Data) }

// ByteAt implements Region.
func (r *Float64) ByteAt(i int) byte {
	return byte(math.Float64bits(r.Data[i>>3]) >> (8 * uint(i&7)))
}

// Float64At implements Region.
func (r *Float64) Float64At(i int) float64 { return r.Data[i] }

// CopyFrom implements Region.
func (r *Float64) CopyFrom(src Region) { copy(r.Data, src.(*Float64).Data) }

// Clone implements Region.
func (r *Float64) Clone() Region {
	d := make([]float64, len(r.Data))
	copy(d, r.Data)
	return &Float64{Data: d}
}

// EqualContents implements Region.
func (r *Float64) EqualContents(o Region) bool {
	s, ok := o.(*Float64)
	if !ok || len(s.Data) != len(r.Data) {
		return false
	}
	for i, v := range r.Data {
		if math.Float64bits(v) != math.Float64bits(s.Data[i]) {
			return false
		}
	}
	return true
}

// HashInto implements Region.
func (r *Float64) HashInto(sink func(b byte)) {
	for _, v := range r.Data {
		u := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			sink(byte(u >> uint(s)))
		}
	}
}

// Float32 is a Region over []float32.
type Float32 struct {
	DepSlot
	Data []float32
}

// NewFloat32 allocates a float32 region with n elements.
func NewFloat32(n int) *Float32 { return &Float32{Data: make([]float32, n)} }

// WrapFloat32 wraps an existing slice without copying.
func WrapFloat32(d []float32) *Float32 { return &Float32{Data: d} }

// Kind implements Region.
func (r *Float32) Kind() Kind { return KindFloat32 }

// NumElems implements Region.
func (r *Float32) NumElems() int { return len(r.Data) }

// NumBytes implements Region.
func (r *Float32) NumBytes() int { return 4 * len(r.Data) }

// ByteAt implements Region.
func (r *Float32) ByteAt(i int) byte {
	return byte(math.Float32bits(r.Data[i>>2]) >> (8 * uint(i&3)))
}

// Float64At implements Region.
func (r *Float32) Float64At(i int) float64 { return float64(r.Data[i]) }

// CopyFrom implements Region.
func (r *Float32) CopyFrom(src Region) { copy(r.Data, src.(*Float32).Data) }

// Clone implements Region.
func (r *Float32) Clone() Region {
	d := make([]float32, len(r.Data))
	copy(d, r.Data)
	return &Float32{Data: d}
}

// EqualContents implements Region.
func (r *Float32) EqualContents(o Region) bool {
	s, ok := o.(*Float32)
	if !ok || len(s.Data) != len(r.Data) {
		return false
	}
	for i, v := range r.Data {
		if math.Float32bits(v) != math.Float32bits(s.Data[i]) {
			return false
		}
	}
	return true
}

// HashInto implements Region.
func (r *Float32) HashInto(sink func(b byte)) {
	for _, v := range r.Data {
		u := math.Float32bits(v)
		sink(byte(u))
		sink(byte(u >> 8))
		sink(byte(u >> 16))
		sink(byte(u >> 24))
	}
}

// Int32 is a Region over []int32.
type Int32 struct {
	DepSlot
	Data []int32
}

// NewInt32 allocates an int32 region with n elements.
func NewInt32(n int) *Int32 { return &Int32{Data: make([]int32, n)} }

// WrapInt32 wraps an existing slice without copying.
func WrapInt32(d []int32) *Int32 { return &Int32{Data: d} }

// Kind implements Region.
func (r *Int32) Kind() Kind { return KindInt32 }

// NumElems implements Region.
func (r *Int32) NumElems() int { return len(r.Data) }

// NumBytes implements Region.
func (r *Int32) NumBytes() int { return 4 * len(r.Data) }

// ByteAt implements Region.
func (r *Int32) ByteAt(i int) byte {
	return byte(uint32(r.Data[i>>2]) >> (8 * uint(i&3)))
}

// Float64At implements Region.
func (r *Int32) Float64At(i int) float64 { return float64(r.Data[i]) }

// CopyFrom implements Region.
func (r *Int32) CopyFrom(src Region) { copy(r.Data, src.(*Int32).Data) }

// Clone implements Region.
func (r *Int32) Clone() Region {
	d := make([]int32, len(r.Data))
	copy(d, r.Data)
	return &Int32{Data: d}
}

// EqualContents implements Region.
func (r *Int32) EqualContents(o Region) bool {
	s, ok := o.(*Int32)
	if !ok || len(s.Data) != len(r.Data) {
		return false
	}
	for i, v := range r.Data {
		if v != s.Data[i] {
			return false
		}
	}
	return true
}

// HashInto implements Region.
func (r *Int32) HashInto(sink func(b byte)) {
	for _, v := range r.Data {
		u := uint32(v)
		sink(byte(u))
		sink(byte(u >> 8))
		sink(byte(u >> 16))
		sink(byte(u >> 24))
	}
}

// Bytes is a Region over raw []byte.
type Bytes struct {
	DepSlot
	Data []byte
}

// NewBytes allocates a byte region with n elements.
func NewBytes(n int) *Bytes { return &Bytes{Data: make([]byte, n)} }

// WrapBytes wraps an existing slice without copying.
func WrapBytes(d []byte) *Bytes { return &Bytes{Data: d} }

// Kind implements Region.
func (r *Bytes) Kind() Kind { return KindBytes }

// NumElems implements Region.
func (r *Bytes) NumElems() int { return len(r.Data) }

// NumBytes implements Region.
func (r *Bytes) NumBytes() int { return len(r.Data) }

// ByteAt implements Region.
func (r *Bytes) ByteAt(i int) byte { return r.Data[i] }

// Float64At implements Region.
func (r *Bytes) Float64At(i int) float64 { return float64(r.Data[i]) }

// CopyFrom implements Region.
func (r *Bytes) CopyFrom(src Region) { copy(r.Data, src.(*Bytes).Data) }

// Clone implements Region.
func (r *Bytes) Clone() Region {
	d := make([]byte, len(r.Data))
	copy(d, r.Data)
	return &Bytes{Data: d}
}

// EqualContents implements Region.
func (r *Bytes) EqualContents(o Region) bool {
	s, ok := o.(*Bytes)
	if !ok || len(s.Data) != len(r.Data) {
		return false
	}
	for i, v := range r.Data {
		if v != s.Data[i] {
			return false
		}
	}
	return true
}

// HashInto implements Region.
func (r *Bytes) HashInto(sink func(b byte)) {
	for _, v := range r.Data {
		sink(v)
	}
}

// TotalBytes sums NumBytes over regions; it is the "task inputs size"
// column of Table I.
func TotalBytes(regions []Region) int {
	n := 0
	for _, r := range regions {
		n += r.NumBytes()
	}
	return n
}

// Optional sink capabilities. hashx.Hasher implements all of them (they
// are part of its interface), so the key hash engages the bulk fast
// paths; plainer sinks fall back to the element-wise word/byte calls.
// Detecting them once per region call (instead of dispatching per
// element) is what makes the p = 100% hash run at memory speed.
type (
	float64sSink interface{ WriteFloat64s([]float64) }
	float32sSink interface{ WriteFloat32s([]float32) }
	int32sSink   interface{ WriteInt32s([]int32) }
	bytesSink    interface{ WriteBytes([]byte) }
	uint16Sink   interface{ WriteUint16(uint16) }
)

// HashWords implements Region.
func (r *Float64) HashWords(sink WordSink) {
	if s, ok := sink.(float64sSink); ok {
		s.WriteFloat64s(r.Data)
		return
	}
	for _, v := range r.Data {
		sink.WriteUint64(math.Float64bits(v))
	}
}

// HashWords implements Region.
func (r *Float32) HashWords(sink WordSink) {
	if s, ok := sink.(float32sSink); ok {
		s.WriteFloat32s(r.Data)
		return
	}
	for _, v := range r.Data {
		sink.WriteUint32(math.Float32bits(v))
	}
}

// HashWords implements Region.
func (r *Int32) HashWords(sink WordSink) {
	if s, ok := sink.(int32sSink); ok {
		s.WriteInt32s(r.Data)
		return
	}
	for _, v := range r.Data {
		sink.WriteUint32(uint32(v))
	}
}

// HashWords implements Region.
func (r *Bytes) HashWords(sink WordSink) {
	if s, ok := sink.(bytesSink); ok {
		s.WriteBytes(r.Data)
		return
	}
	for _, v := range r.Data {
		_ = sink.WriteByte(v)
	}
}

// HashSample feeds the bytes at the given ascending local byte offsets to
// sink: the sampled-hash (p < 100%) fast path. Contiguous offset runs —
// which type-aware MSB-first selection produces wholesale once p reaches
// 25% on 4-byte elements (and 12.5% on 8-byte ones) — are detected and
// emitted as 2/4/8-byte word writes instead of per-byte calls; the byte
// stream is identical either way.

// HashSample implements Region.
func (r *Float64) HashSample(offsets []int32, sink WordSink) {
	for _, off := range offsets {
		u := math.Float64bits(r.Data[off>>3])
		_ = sink.WriteByte(byte(u >> (8 * uint(off&7))))
	}
}

// HashSample implements Region.
func (r *Float32) HashSample(offsets []int32, sink WordSink) {
	for _, off := range offsets {
		u := math.Float32bits(r.Data[off>>2])
		_ = sink.WriteByte(byte(u >> (8 * uint(off&3))))
	}
}

// HashSample implements Region.
func (r *Int32) HashSample(offsets []int32, sink WordSink) {
	for _, off := range offsets {
		u := uint32(r.Data[off>>2])
		_ = sink.WriteByte(byte(u >> (8 * uint(off&3))))
	}
}

// HashSample implements Region.
func (r *Bytes) HashSample(offsets []int32, sink WordSink) {
	for _, off := range offsets {
		_ = sink.WriteByte(r.Data[off])
	}
}

// HashSampleRuns implements Region.
func (r *Float64) HashSampleRuns(runs []int32, sink WordSink) {
	u16, has16 := sink.(uint16Sink)
	d := r.Data
	for k := 0; k+1 < len(runs); k += 2 {
		o, run := runs[k], runs[k+1]
		for run >= 8 {
			u := math.Float64bits(d[o>>3]) >> (8 * uint(o&7))
			if o&7 != 0 {
				u |= math.Float64bits(d[o>>3+1]) << (64 - 8*uint(o&7))
			}
			sink.WriteUint64(u)
			o += 8
			run -= 8
		}
		if run >= 4 {
			u := math.Float64bits(d[o>>3]) >> (8 * uint(o&7))
			if o&7 > 4 {
				u |= math.Float64bits(d[o>>3+1]) << (64 - 8*uint(o&7))
			}
			sink.WriteUint32(uint32(u))
			o += 4
			run -= 4
		}
		if run >= 2 && has16 {
			u := uint16(byte(math.Float64bits(d[o>>3])>>(8*uint(o&7)))) |
				uint16(byte(math.Float64bits(d[(o+1)>>3])>>(8*uint((o+1)&7))))<<8
			u16.WriteUint16(u)
			o += 2
			run -= 2
		}
		for ; run > 0; run-- {
			_ = sink.WriteByte(byte(math.Float64bits(d[o>>3]) >> (8 * uint(o&7))))
			o++
		}
	}
}

// HashSampleRuns implements Region.
func (r *Float32) HashSampleRuns(runs []int32, sink WordSink) {
	hashSampleRuns4(runs, sink, r.Data, func(e int32) uint32 { return math.Float32bits(r.Data[e]) })
}

// HashSampleRuns implements Region.
func (r *Int32) HashSampleRuns(runs []int32, sink WordSink) {
	hashSampleRuns4(runs, sink, r.Data, func(e int32) uint32 { return uint32(r.Data[e]) })
}

// hashSampleRuns4 is the shared run emitter for 4-byte-element regions.
// The bits closure is only reached on run boundaries, so its call cost is
// amortized over whole words; data is passed solely to pin the slice for
// bounds-check elimination.
func hashSampleRuns4[T any](runs []int32, sink WordSink, _ []T, bits func(int32) uint32) {
	u16, has16 := sink.(uint16Sink)
	for k := 0; k+1 < len(runs); k += 2 {
		o, run := runs[k], runs[k+1]
		for run >= 4 {
			u := bits(o>>2) >> (8 * uint(o&3))
			if o&3 != 0 {
				u |= bits(o>>2+1) << (32 - 8*uint(o&3))
			}
			sink.WriteUint32(u)
			o += 4
			run -= 4
		}
		if run >= 2 && has16 {
			u := uint16(byte(bits(o>>2)>>(8*uint(o&3)))) |
				uint16(byte(bits((o+1)>>2)>>(8*uint((o+1)&3))))<<8
			u16.WriteUint16(u)
			o += 2
			run -= 2
		}
		for ; run > 0; run-- {
			_ = sink.WriteByte(byte(bits(o>>2) >> (8 * uint(o&3))))
			o++
		}
	}
}

// HashSampleRuns implements Region.
func (r *Bytes) HashSampleRuns(runs []int32, sink WordSink) {
	u16, has16 := sink.(uint16Sink)
	d := r.Data
	for k := 0; k+1 < len(runs); k += 2 {
		o, run := runs[k], runs[k+1]
		for run >= 8 {
			sink.WriteUint64(uint64(d[o]) | uint64(d[o+1])<<8 | uint64(d[o+2])<<16 |
				uint64(d[o+3])<<24 | uint64(d[o+4])<<32 | uint64(d[o+5])<<40 |
				uint64(d[o+6])<<48 | uint64(d[o+7])<<56)
			o += 8
			run -= 8
		}
		if run >= 4 {
			sink.WriteUint32(uint32(d[o]) | uint32(d[o+1])<<8 | uint32(d[o+2])<<16 | uint32(d[o+3])<<24)
			o += 4
			run -= 4
		}
		if run >= 2 && has16 {
			u16.WriteUint16(uint16(d[o]) | uint16(d[o+1])<<8)
			o += 2
			run -= 2
		}
		for ; run > 0; run-- {
			_ = sink.WriteByte(d[o])
			o++
		}
	}
}
