package decfloat

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

// maxLen is the longest text AppendShortest writes: a sign, "0." and
// five zeros ahead of seventeen digits (-0.000001234567890123456); the
// exponent forms and the 21-digit integers are shorter.
const maxLen = 1 + 2 + 5 + 17

// AppendShortest appends f as encoding/json writes a float64: the
// shortest decimal that reads back as f, as digits with a decimal point
// where 1e-6 ≤ |f| < 1e21 and as d.ddde±x (no padding of the exponent)
// elsewhere. JSON has no spelling for an infinity or a NaN and
// encoding/json refuses them; they come out as strconv spells them.
func AppendShortest(dst []byte, f float64) []byte {
	b := math.Float64bits(f)
	if cap(dst)-len(dst) < maxLen {
		dst = slices.Grow(dst, maxLen)
	}
	buf := dst[len(dst) : len(dst)+maxLen]
	i := 0
	if b>>63 != 0 {
		buf[0] = '-'
		i = 1
	}
	frac := b & (1<<52 - 1)
	exp := int(b>>52) & 0x7FF
	switch {
	case exp == 0x7FF && frac != 0:
		return append(dst, "NaN"...)
	case exp == 0x7FF:
		return append(dst, "+Inf-Inf"[4*i:4*i+4]...)
	case exp == 0 && frac == 0:
		buf[i] = '0'
		return dst[:len(dst)+i+1]
	}

	// f = ±d × 10^e = ±0.d₁d₂…dₙ × 10^pt
	d, e := shortest(frac, exp)
	n := decimalLen(d)
	pt := n + e
	switch {
	case pt < -5 || pt > 21: // d.ddde±x
		writeDigits(buf[i+1:], d, n)
		buf[i] = buf[i+1]
		i++
		if n > 1 {
			buf[i] = '.'
			i += n
		}
		buf[i] = 'e'
		x := pt - 1
		if x < 0 {
			buf[i+1] = '-'
			x = -x
		} else {
			buf[i+1] = '+'
		}
		i += 2
		switch {
		case x >= 100:
			buf[i], buf[i+1], buf[i+2] = byte('0'+x/100), byte('0'+x/10%10), byte('0'+x%10)
			i += 3
		case x >= 10:
			buf[i], buf[i+1] = byte('0'+x/10), byte('0'+x%10)
			i += 2
		default:
			buf[i] = byte('0' + x)
			i++
		}
	case pt <= 0: // 0.000ddd
		buf[i], buf[i+1] = '0', '.'
		i += 2
		for ; pt < 0; pt++ {
			buf[i] = '0'
			i++
		}
		writeDigits(buf[i:], d, n)
		i += n
	case pt >= n: // ddd000
		writeDigits(buf[i:], d, n)
		for i += n; n < pt; n++ {
			buf[i] = '0'
			i++
		}
	default: // dd.ddd: written one place to the right, then the integer part moved back
		writeDigits(buf[i+1:], d, n)
		for end := i + pt; i < end; i++ {
			buf[i] = buf[i+1]
		}
		buf[i] = '.'
		i += 1 + n - pt
	}
	return dst[:len(dst)+i]
}

// writeDigits writes the n decimal digits of d into buf[:n], eight at a
// time from the right. Sixteen or seventeen digits (most floats) are
// two halves and a leading digit, each split from d by its own division
// and written independently of the others.
func writeDigits(buf []byte, d uint64, n int) {
	buf = buf[:n]
	if n >= 16 {
		hi := d / 1e8
		lo := d - hi*1e8
		if n == 17 {
			top := d / 1e16
			buf[0] = byte('0' + top)
			hi -= top * 1e8
		}
		binary.LittleEndian.PutUint64(buf[n-16:], digits8(uint32(hi)))
		binary.LittleEndian.PutUint64(buf[n-8:], digits8(uint32(lo)))
		return
	}
	if n > 8 {
		q := d / 1e8
		binary.LittleEndian.PutUint64(buf[n-8:], digits8(uint32(d-q*1e8)))
		d = q
		n -= 8
	}
	if n == 8 {
		binary.LittleEndian.PutUint64(buf, digits8(uint32(d)))
		return
	}
	// The last n of the eight, leading zeros dropped.
	w := digits8(uint32(d)) >> (8 * uint(8-n))
	for j := range buf[:n] {
		buf[j] = byte(w)
		w >>= 8
	}
}

// digits8 returns v, below 10^8, as eight ASCII digits, the first in the
// low byte. The halves above and below 10^4 go into 32-bit lanes, each
// lane is split at 100 into 16-bit lanes and each of those at 10 into
// bytes, every lane at once: x×10486>>20 is x/100 for x < 10^4 and
// x×103>>10 is x/10 for x < 100, neither product reaching the next lane.
func digits8(v uint32) uint64 {
	x := uint64(v/1e4) | uint64(v%1e4)<<32
	hi := (x * 10486 >> 20) & 0x0000007F0000007F
	x = hi | (x-100*hi)<<16
	hi = (x * 103 >> 10) & 0x000F000F000F000F
	return (hi | (x-10*hi)<<8) + 0x3030303030303030
}

// decimalLen is the number of decimal digits of d, which is not zero.
func decimalLen(d uint64) int {
	// 1233/4096 approximates log10(2): t is the digit count or one short.
	t := bits.Len64(d) * 1233 >> 12
	if d >= tenTo[t] {
		t++
	}
	return t
}

// tenTo[i] is 10^i.
var tenTo = [20]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// shortest returns the shortest d × 10^e that reads back as the finite,
// nonzero float64 with the given fraction and biased exponent fields;
// of several of that length the one nearest the float, and of two
// equally near the even one. d does not end in a zero.
//
// This is Schubfach (Giulietti, "The Schubfach way to render doubles",
// 2020): one power of ten 10^k is chosen from the float's exponent alone
// so that the rounding interval, scaled by 10^-k, is wide enough to hold
// an integer and too narrow to hold two multiples of ten; the float and
// the two ends of its interval are then scaled by one 64×128-bit
// multiplication each, and the answer is picked among at most four
// integers around the scaled float. No digit is generated and dropped.
func shortest(frac uint64, exp int) (d uint64, e int) {
	// f = c × 2^q
	c, q := frac, -1074
	if exp != 0 {
		c, q = 1<<52|frac, exp-1075
		if 0 <= -q && -q < 53 && c&(1<<uint(-q)-1) == 0 {
			// An integer below 2^53: its neighbours are no nearer than a
			// half, so it is its own shortest spelling.
			return trimZeros(c>>uint(-q), 0)
		}
	}

	// The interval that rounds to f, in units of 2^(q-2): [cbl, cbr]
	// around cb, ends included when c is even. Below a power of two the
	// floats are twice as dense, so the lower end is half as far.
	var closer uint64
	if frac == 0 && exp > 1 {
		closer = 1
	}
	cbl, cb, cbr := 4*c-2+closer, 4*c, 4*c+2
	open := c & 1

	// k = floor(log10(2^q)), or of 3/4 × 2^q in the closer case; h is
	// what is left of q once 10^-k is written as g × 2^r.
	k := (q*1262611 - int(closer)*524031) >> 22
	h := uint(q + (-k*1741647)>>19 + 1)
	ghi, glo := pow10Ceil(-k)
	vbl := roundToOdd(ghi, glo, cbl<<h)
	vb := roundToOdd(ghi, glo, cb<<h)
	vbr := roundToOdd(ghi, glo, cbr<<h)
	lower, upper := vbl+open, vbr-open

	// Everything is still scaled by four. s = floor(vb/4) is the float in
	// units of 10^k, rounded down. A multiple of ten in the interval is one
	// digit shorter than anything else there, and there is at most one.
	s := vb / 4
	if s >= 10 {
		sp := s / 10
		down := lower <= 40*sp
		up := 40*sp+40 <= upper
		if down != up {
			if up {
				sp++
			}
			return trimZeros(sp, k+1)
		}
	}
	// Otherwise s or s+1: the one in the interval, or the nearer, or the
	// even one.
	down := lower <= 4*s
	up := 4*s+4 <= upper
	if down != up {
		if up {
			s++
		}
	} else if mid := 4*s + 2; vb > mid || vb == mid && s&1 != 0 {
		s++
	}
	if s == 10 {
		// From s = 9, which the step above passed over (its other
		// candidate would have been zero).
		return 1, k + 1
	}
	return s, k
}

// trimZeros moves the zeros d ends in into the exponent.
func trimZeros(d uint64, e int) (uint64, int) {
	for d%10 == 0 {
		d /= 10
		e++
	}
	return d, e
}

// maxExactPow10 is the largest k for which 10^k fits 128 bits, so that
// its table entry is exact: 5^55 < 2^128 < 5^56.
const maxExactPow10 = 55

// pow10Ceil returns the 128-bit mantissa of 10^k rounded up: the table
// entry if that is exact, its successor if it was rounded down.
func pow10Ceil(k int) (hi, lo uint64) {
	p := &pow10[k-pow10Min]
	if 0 <= k && k <= maxExactPow10 {
		return p[0], p[1]
	}
	lo, carry := bits.Add64(p[1], 1, 0)
	return p[0] + carry, lo
}

// roundToOdd returns the top 64 bits of the 192-bit product g × cp,
// with the lowest bit set if any bit below them is: enough to compare
// the product with an integer and to round it. g is an over-estimate by
// less than one unit, so a remainder of one unit or less may be no
// remainder at all and does not count.
func roundToOdd(ghi, glo, cp uint64) uint64 {
	xhi, _ := bits.Mul64(glo, cp)
	yhi, ylo := bits.Mul64(ghi, cp)
	y0, carry := bits.Add64(ylo, xhi, 0)
	y1 := yhi + carry
	if y0 > 1 {
		y1 |= 1
	}
	return y1
}
