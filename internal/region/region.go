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
	"encoding/binary"
	"fmt"
	"math"

	"atm/internal/hashx"
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
	// HashWords feeds the whole payload to h, producing the same
	// little-endian byte stream as HashInto with one bulk write. It is
	// the p = 100% key path.
	HashWords(h hashx.Hasher)
	// DepSlotHeader returns the region's dependence-state slot, where
	// the task runtime keeps the region's dependence history. Embedding
	// DepSlot provides it.
	DepSlotHeader() *DepSlot
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

// HashWords implements Region.
func (r *Float64) HashWords(h hashx.Hasher) { h.WriteFloat64s(r.Data) }

// HashWords implements Region.
func (r *Float32) HashWords(h hashx.Hasher) { h.WriteFloat32s(r.Data) }

// HashWords implements Region.
func (r *Int32) HashWords(h hashx.Hasher) { h.WriteInt32s(r.Data) }

// HashWords implements Region.
func (r *Bytes) HashWords(h hashx.Hasher) { h.WriteBytes(r.Data) }

// HashSelected feeds h the bytes of r that a sampled key selects (§III-B,
// §III-C): the top bytes of every element when top > 0, else the bytes at
// the ascending local byte offsets offs; top equal to the element size is
// the whole payload. The stream is the selected bytes in ascending offset
// order, a block or more per hasher call: a top-byte selection through the
// hasher's strided top-byte writes, any other gathered twelve bytes (one
// lookup3 block) at a time into a word pair.
func HashSelected(r Region, top int, offs []int32, h hashx.Hasher) {
	if top == r.Kind().Size() {
		r.HashWords(h)
		return
	}
	if top > 0 {
		switch r := r.(type) {
		case *Float64:
			h.WriteFloat64sTop(r.Data, top)
		case *Float32:
			h.WriteFloat32sTop(r.Data, top)
		case *Int32:
			h.WriteInt32sTop(r.Data, top)
		default: // a Region of another package
			for i, size := 0, r.Kind().Size(); i < r.NumBytes(); i++ {
				if i%size >= size-top {
					_ = h.WriteByte(r.ByteAt(i))
				}
			}
		}
		return
	}
	var b [12]byte
	for len(offs) > 0 {
		n := min(len(offs), len(b))
		switch r := r.(type) {
		case *Float64:
			for i, o := range offs[:n] {
				b[i] = byte(math.Float64bits(r.Data[o>>3]) >> (8 * uint(o&7)))
			}
		case *Float32:
			for i, o := range offs[:n] {
				b[i] = byte(math.Float32bits(r.Data[o>>2]) >> (8 * uint(o&3)))
			}
		case *Int32:
			for i, o := range offs[:n] {
				b[i] = byte(uint32(r.Data[o>>2]) >> (8 * uint(o&3)))
			}
		case *Bytes:
			for i, o := range offs[:n] {
				b[i] = r.Data[o]
			}
		default:
			for i, o := range offs[:n] {
				b[i] = r.ByteAt(int(o))
			}
		}
		if n == len(b) {
			h.WriteUint64(binary.LittleEndian.Uint64(b[:8]))
			h.WriteUint32(binary.LittleEndian.Uint32(b[8:]))
		} else {
			for _, x := range b[:n] {
				_ = h.WriteByte(x)
			}
		}
		offs = offs[n:]
	}
}
