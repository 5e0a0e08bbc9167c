// Package decfloat converts between float64 and the decimal text of a
// JSON number, for the service routes that take floats as text: POST
// /v1/submit, which moves them by the hundred per request
// (internal/service/codec.go), and GET /v1/lookup's input list, which
// is held to the same grammar.
//
// Parse reads a JSON number in one pass — grammar, mantissa and exponent
// together, taking digit runs eight bytes at a time — and rounds it
// with the Eisel-Lemire algorithm; the inputs that algorithm cannot
// decide go to strconv.ParseFloat, so every result is strconv's, bit
// for bit. AppendShortest writes the shortest digits that read back as
// the same float (Schubfach), eight at a time without a table, laid out
// as encoding/json lays them out, so every result is encoding/json's,
// byte for byte. The differential fuzz targets in this package hold
// both to that.
//
// Both directions multiply by a power of ten taken from one static table
// (pow10.go): 128-bit mantissas of 10^k, rounded down, as Eisel-Lemire
// wants them. Schubfach wants them rounded up, which is the same entry
// plus one wherever 10^k is not exact in 128 bits (pow10Ceil).
package decfloat

import (
	"encoding/binary"
	"math"
	"math/bits"
	"strconv"
	"unsafe"
)

// maxMantissaDigits is how many significant digits always fit a uint64.
const maxMantissaDigits = 19

// Parse reads the JSON number at the start of b,
//
//	-? (0 | [1-9][0-9]*) (\. [0-9]+)? ([eE] [+-]? [0-9]+)?
//
// the way a JSON scanner does: it stops at the first byte the grammar
// cannot use, so "01" is the number 0 followed by a 1. It returns the
// float64 strconv.ParseFloat makes of those bytes and how many they are.
// ok is false, and f and n mean nothing, when b does not start with a
// number or the number is too large for a float64.
func Parse(b []byte) (f float64, n int, ok bool) {
	i := 0
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		i = 1
	}

	// The mantissa: every digit of the integer and fraction parts as one
	// integer, wrapping around if there are too many (checked below).
	var man uint64
	start := i
	if i < len(b) && b[i] == '0' {
		i++
	} else if i, man = scanDigits(b, i, man); i == start {
		return 0, 0, false
	}
	digits := i - start
	exp10 := 0
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		if i, man = scanDigits(b, i, man); i == frac {
			return 0, 0, false
		}
		digits += i - frac
		exp10 = frac - i
	}
	if digits > maxMantissaDigits {
		// The zeros that lead 0.000123 are not significant: they added
		// nothing to man.
		for j := start; j < i && digits > maxMantissaDigits && (b[j] == '0' || b[j] == '.'); j++ {
			if b[j] == '0' {
				digits--
			}
		}
	}

	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		estart := i
		e := 0
		for ; i < len(b); i++ {
			c := b[i] - '0'
			if c > 9 {
				break
			}
			if e < 1e6 { // past any float64's range already; no need to overflow
				e = e*10 + int(c)
			}
		}
		if i == estart {
			return 0, 0, false
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}

	if digits <= maxMantissaDigits {
		if f, ok := eiselLemire(man, exp10, neg); ok {
			return f, i, true
		}
	}
	// A mantissa that did not fit, a value Eisel-Lemire places too close
	// to the midpoint of two floats to round, or one outside the normal
	// range. The text is a view of b, not a copy; ParseFloat keeps none
	// of it.
	f, err := strconv.ParseFloat(unsafe.String(&b[0], i), 64)
	return f, i, err == nil
}

// scanDigits steps over the run of digits at b[i:], appending them to
// the decimal number man (which wraps around past 64 bits), and returns
// where the run ends. It reads eight bytes at a time: a word of eight
// digits is folded in whole, and the word the run ends in has its k
// leading digits folded in at once, as the low k digits of an
// eight-digit number. man×10^k + v wraps exactly as k steps of
// man×10 + c do, since both are the same sum modulo 2^64. The last
// seven bytes of b are read one at a time.
func scanDigits(b []byte, i int, man uint64) (int, uint64) {
	for ; i+8 <= len(b); i += 8 {
		w := binary.LittleEndian.Uint64(b[i:]) - 0x3030303030303030
		// A byte was a digit when subtracting '0' left its top bit clear
		// (it was at least '0') and adding a further 0x76 does too (it was
		// at most '9'). A borrow or carry only leaves a byte that already
		// failed, so the lowest failing byte is always marked.
		notDigit := (w | (w + 0x7676767676767676)) & 0x8080808080808080
		if notDigit != 0 {
			k := bits.TrailingZeros64(notDigit) >> 3
			// Shifted to the top of the word, the k digits read as an
			// eight-digit number with 8-k leading zeros; k = 0 shifts
			// everything out.
			return i + k, man*tenTo[k] + uint64(eightDigits(w<<(64-8*uint(k))))
		}
		man = man*1e8 + uint64(eightDigits(w))
	}
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			break
		}
		man = man*10 + uint64(c)
	}
	return i, man
}

// eightDigits returns the value of the eight digits w holds as bytes 0
// to 9, the first in its low byte. Three multiplies fold them:
// neighbouring digits into four pairs (×10 plus the next byte), then the
// pairs into the two halves weighted 10^6, 10^4, 10^2 and 1 (Lemire,
// "Number parsing at a gigabyte per second", 2021).
func eightDigits(w uint64) uint32 {
	w = w*10 + w>>8
	const mask = 0x000000FF000000FF
	w = ((w&mask)*(100+1000000<<32) + (w>>16&mask)*(1+10000<<32)) >> 32
	return uint32(w)
}

// eiselLemire returns the float64 nearest (-1)^neg × man × 10^exp10, or
// ok false when it cannot tell: the product lands within the table's
// truncation error of the midpoint between two floats, or outside the
// normal range. This is the algorithm of Lemire, "Number parsing at a
// gigabyte per second" (2021), in the form Eisel gave it, over mantissas
// that are rounded down.
func eiselLemire(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	var sign uint64
	if neg {
		sign = 1 << 63
	}
	if man == 0 {
		return math.Float64frombits(sign), true
	}
	if exp10 < pow10Min || exp10 > pow10Max {
		return 0, false
	}

	// man × 10^exp10 = (man << clz) × pow[hi:lo] × 2^e for an e that
	// depends only on exp10 and clz; 217706/2^16 approximates log2(10)
	// closely enough to give floor(exp10 × log2(10)) over the table.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)
	pow := &pow10[exp10-pow10Min]

	// The top 64 bits of the mantissa times the top 64 of the power give
	// 55 good bits unless the nine below the rounding position are all
	// ones, where the low half of the power can still carry in.
	hi, lo := bits.Mul64(man, pow[0])
	if hi&0x1FF == 0x1FF && lo+man < lo {
		yhi, ylo := bits.Mul64(man, pow[1])
		mhi, mlo := hi, lo+yhi
		if mlo < lo {
			mhi++
		}
		if mhi&0x1FF == 0x1FF && mlo+1 == 0 && ylo+man < ylo {
			return 0, false // and the part of the power the table dropped could too
		}
		hi, lo = mhi, mlo
	}

	// 54 bits: the 53 of the result and the one that rounds it.
	msb := hi >> 63
	m := hi >> (msb + 9)
	exp2 -= 1 ^ msb
	if lo == 0 && hi&0x1FF == 0 && m&3 == 1 {
		return 0, false // exactly halfway as far as 128 bits show
	}
	m += m & 1
	m >>= 1
	if m>>53 > 0 {
		m >>= 1
		exp2++
	}
	// exp2 is unsigned: zero or wrapped is subnormal, 0x7FF and up is
	// infinite, and both are strconv's to round.
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	return math.Float64frombits(sign | exp2<<52 | m&(1<<52-1)), true
}
