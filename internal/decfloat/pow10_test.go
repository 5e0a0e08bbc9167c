package decfloat

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"math/big"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite pow10.go from math/big")

// pow10Floor computes what pow10[k-pow10Min] must hold: the m with
// 2^127 ≤ m < 2^128 and m × 2^r ≤ 10^k < (m+1) × 2^r for some r.
func pow10Floor(k int) (hi, lo uint64, exact bool) {
	num, den := big.NewInt(1), big.NewInt(1)
	ten := big.NewInt(10)
	if k >= 0 {
		num.Exp(ten, big.NewInt(int64(k)), nil)
	} else {
		den.Exp(ten, big.NewInt(int64(-k)), nil)
	}
	// Scale by a power of two that leaves the quotient 128 or 129 bits,
	// then drop the extra one.
	if shift := 128 - (num.BitLen() - den.BitLen()); shift >= 0 {
		num.Lsh(num, uint(shift))
	} else {
		den.Lsh(den, uint(-shift))
	}
	m, rem := new(big.Int).QuoRem(num, den, new(big.Int))
	exact = rem.Sign() == 0
	for m.BitLen() > 128 {
		exact = exact && m.Bit(0) == 0
		m.Rsh(m, 1)
	}
	if m.BitLen() != 128 {
		panic(fmt.Sprintf("10^%d: %d-bit mantissa", k, m.BitLen()))
	}
	lo = new(big.Int).And(m, new(big.Int).SetUint64(^uint64(0))).Uint64()
	hi = new(big.Int).Rsh(m, 64).Uint64()
	return hi, lo, exact
}

// TestPow10Table recomputes every entry of the checked-in table, and the
// range over which entries are exact, which pow10Ceil relies on. With
// -update it writes the file instead.
func TestPow10Table(t *testing.T) {
	if *update {
		var src bytes.Buffer
		fmt.Fprintf(&src, `// Code generated by go test -run TestPow10Table -update; DO NOT EDIT.

package decfloat

// pow10[k-pow10Min] is the 128-bit mantissa of 10^k, high word first,
// rounded down: 10^k = (hi×2^64 + lo + ε) × 2^r with the top bit of hi
// set and 0 ≤ ε < 1. The range is what a float64 needs: a 19-digit
// mantissa times 10^-343 rounds to zero and one times 10^309 is
// infinite (Parse), and Schubfach scales by 10^-324 to 10^292
// (AppendShortest).
const (
	pow10Min = %d
	pow10Max = %d
)

var pow10 = [pow10Max - pow10Min + 1][2]uint64{
`, pow10Min, pow10Max)
		for k := pow10Min; k <= pow10Max; k++ {
			hi, lo, _ := pow10Floor(k)
			fmt.Fprintf(&src, "{0x%016X, 0x%016X}, // 1e%d\n", hi, lo, k)
		}
		src.WriteString("}\n")
		out, err := format.Source(src.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("pow10.go", out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for k := pow10Min; k <= pow10Max; k++ {
		hi, lo, exact := pow10Floor(k)
		if got := pow10[k-pow10Min]; got != [2]uint64{hi, lo} {
			t.Errorf("pow10[1e%d] = %#x, want {%#x, %#x}", k, got, hi, lo)
		}
		if exact != (0 <= k && k <= maxExactPow10) {
			t.Errorf("1e%d: exact = %v, maxExactPow10 = %d", k, exact, maxExactPow10)
		}
	}
}
