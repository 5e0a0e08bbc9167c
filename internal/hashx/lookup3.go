package hashx

import (
	"math"
	"math/bits"
)

// lookup3State is Bob Jenkins' lookup3 block function run as a stream:
// the paper (§III-B) keys tasks with "a hash key generator [Jenkins],
// which is known to give a collision once in 2^32". It buffers bytes in
// 12-byte lookup3 blocks and mixes them with lookup3's mix/final rounds.
//
// Because lookup3 folds the total input length into its *initial* state
// — unknowable while streaming — the length is folded at finalization
// instead. Its values therefore differ from lookup3's hashlittle2 but
// share its mixing quality; the function is deterministic and
// self-consistent, which is all ATM requires of a key.
type lookup3State struct {
	a, b, c uint32
	buf     [12]byte
	n       int // bytes in buf
	total   int // total bytes written
	seed    uint64
}

// mix mixes three 32-bit values reversibly (lookup3 mix()). Written with
// bits.RotateLeft32 it stays within the inliner's budget, so the block
// loops keep their state in registers across blocks.
func mix(a, b, c uint32) (uint32, uint32, uint32) {
	a -= c
	a ^= bits.RotateLeft32(c, 4)
	c += b
	b -= a
	b ^= bits.RotateLeft32(a, 6)
	a += c
	c -= b
	c ^= bits.RotateLeft32(b, 8)
	b += a
	a -= c
	a ^= bits.RotateLeft32(c, 16)
	c += b
	b -= a
	b ^= bits.RotateLeft32(a, 19)
	a += c
	c -= b
	c ^= bits.RotateLeft32(b, 4)
	b += a
	return a, b, c
}

// final forces all bits of c to avalanche (lookup3 final()).
func final(a, b, c uint32) (uint32, uint32, uint32) {
	c ^= b
	c -= bits.RotateLeft32(b, 14)
	a ^= c
	a -= bits.RotateLeft32(c, 11)
	b ^= a
	b -= bits.RotateLeft32(a, 25)
	c ^= b
	c -= bits.RotateLeft32(b, 16)
	a ^= c
	a -= bits.RotateLeft32(c, 4)
	b ^= a
	b -= bits.RotateLeft32(a, 14)
	c ^= b
	c -= bits.RotateLeft32(b, 24)
	return a, b, c
}

func le32(p []byte) uint32 {
	_ = p[3]
	return uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24
}

// Reset implements Hasher: the running state starts seeded as
// hashlittle2's does, minus the length.
func (s *lookup3State) Reset() {
	s.a = 0xdeadbeef + uint32(s.seed)
	s.b = s.a
	s.c = s.a + uint32(s.seed>>32)
	s.n = 0
	s.total = 0
}

// ResetSeed implements Hasher.
func (s *lookup3State) ResetSeed(seed uint64) {
	s.seed = seed
	s.Reset()
}

// WriteByte implements Hasher.
func (s *lookup3State) WriteByte(x byte) error {
	s.buf[s.n] = x
	s.n++
	s.total++
	if s.n == 12 {
		s.flushFull()
	}
	return nil
}

// WriteUint32 implements Hasher.
func (s *lookup3State) WriteUint32(u uint32) {
	if s.n <= 8 {
		s.buf[s.n] = byte(u)
		s.buf[s.n+1] = byte(u >> 8)
		s.buf[s.n+2] = byte(u >> 16)
		s.buf[s.n+3] = byte(u >> 24)
		s.n += 4
		s.total += 4
		if s.n == 12 {
			s.flushFull()
		}
		return
	}
	s.writeTop(uint64(u), 32, 4)
}

// WriteUint64 implements Hasher.
func (s *lookup3State) WriteUint64(u uint64) {
	if s.n <= 4 {
		s.buf[s.n] = byte(u)
		s.buf[s.n+1] = byte(u >> 8)
		s.buf[s.n+2] = byte(u >> 16)
		s.buf[s.n+3] = byte(u >> 24)
		s.buf[s.n+4] = byte(u >> 32)
		s.buf[s.n+5] = byte(u >> 40)
		s.buf[s.n+6] = byte(u >> 48)
		s.buf[s.n+7] = byte(u >> 56)
		s.n += 8
		s.total += 8
		if s.n == 12 {
			s.flushFull()
		}
		return
	}
	s.WriteUint32(uint32(u))
	s.WriteUint32(uint32(u >> 32))
}

func (s *lookup3State) flushFull() {
	s.a += le32(s.buf[0:4])
	s.b += le32(s.buf[4:8])
	s.c += le32(s.buf[8:12])
	s.a, s.b, s.c = mix(s.a, s.b, s.c)
	s.n = 0
}

// The bulk writes fold whole typed slices into the block state in
// 12-byte strides without any per-element call or buffer shuffling,
// producing exactly the byte stream the element-wise writes would. 4- and
// 8-byte elements return the buffer fill to zero every three elements
// (lcm(4,12)/4, lcm(8,12)/8), so after at most two single-element writes
// the tight block loops take over.

// WriteFloat64s implements Hasher.
func (s *lookup3State) WriteFloat64s(d []float64) {
	i := 0
	for ; i < len(d) && s.n != 0; i++ {
		s.WriteUint64(math.Float64bits(d[i]))
	}
	a, b, c := s.a, s.b, s.c
	for ; i+3 <= len(d); i += 3 {
		u0 := math.Float64bits(d[i])
		u1 := math.Float64bits(d[i+1])
		u2 := math.Float64bits(d[i+2])
		a += uint32(u0)
		b += uint32(u0 >> 32)
		c += uint32(u1)
		a, b, c = mix(a, b, c)
		a += uint32(u1 >> 32)
		b += uint32(u2)
		c += uint32(u2 >> 32)
		a, b, c = mix(a, b, c)
		s.total += 24
	}
	s.a, s.b, s.c = a, b, c
	for ; i < len(d); i++ {
		s.WriteUint64(math.Float64bits(d[i]))
	}
}

// WriteFloat32s implements Hasher: three elements per block.
func (s *lookup3State) WriteFloat32s(d []float32) {
	i := 0
	for ; i < len(d) && s.n != 0; i++ {
		s.WriteUint32(math.Float32bits(d[i]))
	}
	a, b, c := s.a, s.b, s.c
	for ; i+3 <= len(d); i += 3 {
		a += math.Float32bits(d[i])
		b += math.Float32bits(d[i+1])
		c += math.Float32bits(d[i+2])
		a, b, c = mix(a, b, c)
		s.total += 12
	}
	s.a, s.b, s.c = a, b, c
	for ; i < len(d); i++ {
		s.WriteUint32(math.Float32bits(d[i]))
	}
}

// WriteInt32s implements Hasher: three elements per block.
func (s *lookup3State) WriteInt32s(d []int32) {
	i := 0
	for ; i < len(d) && s.n != 0; i++ {
		s.WriteUint32(uint32(d[i]))
	}
	a, b, c := s.a, s.b, s.c
	for ; i+3 <= len(d); i += 3 {
		a += uint32(d[i])
		b += uint32(d[i+1])
		c += uint32(d[i+2])
		a, b, c = mix(a, b, c)
		s.total += 12
	}
	s.a, s.b, s.c = a, b, c
	for ; i < len(d); i++ {
		s.WriteUint32(uint32(d[i]))
	}
}

// WriteBytes implements Hasher: 12 bytes per block once aligned.
func (s *lookup3State) WriteBytes(p []byte) {
	i := 0
	for ; i < len(p) && s.n != 0; i++ {
		_ = s.WriteByte(p[i])
	}
	a, b, c := s.a, s.b, s.c
	for ; i+12 <= len(p); i += 12 {
		a += le32(p[i : i+4])
		b += le32(p[i+4 : i+8])
		c += le32(p[i+8 : i+12])
		a, b, c = mix(a, b, c)
		s.total += 12
	}
	s.a, s.b, s.c = a, b, c
	for ; i < len(p); i++ {
		_ = s.WriteByte(p[i])
	}
}

// The top-byte writes serve sampled keys whose selection is the top k
// bytes of every element. Each element is read as a w-bit word (w = 64
// or 32), 12/k elements fill one block, packed by top1 or top2 and
// folded straight into the running state, as the bulk writes do;
// writeTop adds one element's bytes while the buffer is part-filled.

// WriteFloat64sTop implements Hasher.
func (s *lookup3State) WriteFloat64sTop(d []float64, k int) {
	x := math.Float64bits
	i := 0
	for ; i < len(d) && s.n != 0; i++ {
		s.writeTop(x(d[i]), 64, k)
	}
	i0, a, b, c := i, s.a, s.b, s.c
	switch k {
	case 1:
		for ; i+12 <= len(d); i += 12 {
			e := d[i : i+12 : i+12]
			a, b, c = mix(a+top1(x(e[0]), x(e[1]), x(e[2]), x(e[3]), 64),
				b+top1(x(e[4]), x(e[5]), x(e[6]), x(e[7]), 64),
				c+top1(x(e[8]), x(e[9]), x(e[10]), x(e[11]), 64))
		}
	case 2:
		for ; i+6 <= len(d); i += 6 {
			e := d[i : i+6 : i+6]
			a, b, c = mix(a+top2(x(e[0]), x(e[1]), 64), b+top2(x(e[2]), x(e[3]), 64), c+top2(x(e[4]), x(e[5]), 64))
		}
	case 4:
		for ; i+3 <= len(d); i += 3 {
			e := d[i : i+3 : i+3]
			a, b, c = mix(a+uint32(x(e[0])>>32), b+uint32(x(e[1])>>32), c+uint32(x(e[2])>>32))
		}
	}
	s.a, s.b, s.c = a, b, c
	s.total += (i - i0) * k
	for ; i < len(d); i++ {
		s.writeTop(x(d[i]), 64, k)
	}
}

// WriteFloat32sTop implements Hasher.
func (s *lookup3State) WriteFloat32sTop(d []float32, k int) {
	x := func(v float32) uint64 { return uint64(math.Float32bits(v)) }
	i := 0
	for ; i < len(d) && s.n != 0; i++ {
		s.writeTop(x(d[i]), 32, k)
	}
	i0, a, b, c := i, s.a, s.b, s.c
	if k == 1 {
		for ; i+12 <= len(d); i += 12 {
			e := d[i : i+12 : i+12]
			a, b, c = mix(a+top1(x(e[0]), x(e[1]), x(e[2]), x(e[3]), 32),
				b+top1(x(e[4]), x(e[5]), x(e[6]), x(e[7]), 32),
				c+top1(x(e[8]), x(e[9]), x(e[10]), x(e[11]), 32))
		}
	} else {
		for ; i+6 <= len(d); i += 6 {
			e := d[i : i+6 : i+6]
			a, b, c = mix(a+top2(x(e[0]), x(e[1]), 32), b+top2(x(e[2]), x(e[3]), 32), c+top2(x(e[4]), x(e[5]), 32))
		}
	}
	s.a, s.b, s.c = a, b, c
	s.total += (i - i0) * k
	for ; i < len(d); i++ {
		s.writeTop(x(d[i]), 32, k)
	}
}

// WriteInt32sTop implements Hasher.
func (s *lookup3State) WriteInt32sTop(d []int32, k int) {
	x := func(v int32) uint64 { return uint64(uint32(v)) }
	i := 0
	for ; i < len(d) && s.n != 0; i++ {
		s.writeTop(x(d[i]), 32, k)
	}
	i0, a, b, c := i, s.a, s.b, s.c
	if k == 1 {
		for ; i+12 <= len(d); i += 12 {
			e := d[i : i+12 : i+12]
			a, b, c = mix(a+top1(x(e[0]), x(e[1]), x(e[2]), x(e[3]), 32),
				b+top1(x(e[4]), x(e[5]), x(e[6]), x(e[7]), 32),
				c+top1(x(e[8]), x(e[9]), x(e[10]), x(e[11]), 32))
		}
	} else {
		for ; i+6 <= len(d); i += 6 {
			e := d[i : i+6 : i+6]
			a, b, c = mix(a+top2(x(e[0]), x(e[1]), 32), b+top2(x(e[2]), x(e[3]), 32), c+top2(x(e[4]), x(e[5]), 32))
		}
	}
	s.a, s.b, s.c = a, b, c
	s.total += (i - i0) * k
	for ; i < len(d); i++ {
		s.writeTop(x(d[i]), 32, k)
	}
}

// top1 packs the top bytes of four w-bit words, x0's lowest.
func top1(x0, x1, x2, x3 uint64, w uint) uint32 {
	return uint32(x0>>(w-8)) | uint32(x1>>(w-16))&0xff00 | uint32(x2>>(w-24))&0xff0000 | uint32(x3>>(w-32))&0xff000000
}

// top2 packs the top two bytes of two w-bit words, x0's lowest.
func top2(x0, x1 uint64, w uint) uint32 {
	return uint32(x0>>(w-16)) | uint32(x1>>(w-32))&0xffff0000
}

// writeTop adds the top k bytes of the w-bit word x.
func (s *lookup3State) writeTop(x uint64, w uint, k int) {
	for j := w/8 - uint(k); j < w/8; j++ {
		s.buf[s.n] = byte(x >> (8 * j))
		if s.n++; s.n == 12 {
			s.flushFull()
		}
	}
	s.total += k
}

// Sum64 implements Hasher. It folds the total length and the buffered
// tail into a copy of the running state, so writes may continue.
func (s *lookup3State) Sum64() uint64 {
	var t [12]byte // zero padding adds nothing
	copy(t[:], s.buf[:s.n])
	_, b, c := final(s.a+uint32(s.total)+le32(t[0:4]), s.b+le32(t[4:8]), s.c+le32(t[8:12]))
	return uint64(c) | uint64(b)<<32
}
