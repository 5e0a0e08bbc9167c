package region

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"atm/internal/hashx"
)

// leBytes renders the canonical little-endian encoding via encoding/binary.
func leBytes(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := binary.Write(&b, binary.LittleEndian, v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func regionsUnderTest() []Region {
	return []Region{
		&Float64{Data: []float64{0, 1.5, -2.25, math.Pi, math.Inf(1), math.SmallestNonzeroFloat64}},
		&Float32{Data: []float32{0, 1.5, -2.25, 3.25e7, float32(math.Inf(-1))}},
		&Int32{Data: []int32{0, 1, -1, 1 << 30, -(1 << 30)}},
		&Bytes{Data: []byte{0, 1, 2, 255, 128}},
	}
}

func payload(r Region) any {
	switch x := r.(type) {
	case *Float64:
		return x.Data
	case *Float32:
		return x.Data
	case *Int32:
		return x.Data
	default:
		return x.(*Bytes).Data
	}
}

func TestByteAtMatchesEncodingBinary(t *testing.T) {
	for _, r := range regionsUnderTest() {
		want := leBytes(t, payload(r))
		if r.NumBytes() != len(want) {
			t.Fatalf("%s: NumBytes=%d want %d", r.Kind(), r.NumBytes(), len(want))
		}
		for i := 0; i < r.NumBytes(); i++ {
			if got := r.ByteAt(i); got != want[i] {
				t.Errorf("%s: ByteAt(%d)=%#x want %#x", r.Kind(), i, got, want[i])
			}
		}
	}
}

func TestHashIntoMatchesByteAt(t *testing.T) {
	for _, r := range regionsUnderTest() {
		var got []byte
		r.HashInto(func(b byte) { got = append(got, b) })
		want := leBytes(t, payload(r))
		if !bytes.Equal(got, want) {
			t.Errorf("%s: HashInto stream mismatch", r.Kind())
		}
	}
}

func TestHashWordsMatchesHashInto(t *testing.T) {
	for _, r := range regionsUnderTest() {
		viaBytes, viaWords := hashx.New(hashx.Lookup3, 3), hashx.New(hashx.Lookup3, 3)
		r.HashInto(func(b byte) { _ = viaBytes.WriteByte(b) })
		r.HashWords(viaWords)
		if viaBytes.Sum64() != viaWords.Sum64() {
			t.Errorf("%s: HashWords and HashInto streams differ", r.Kind())
		}
	}
}

func TestKindSizeConsistency(t *testing.T) {
	for _, r := range regionsUnderTest() {
		if r.NumBytes() != r.NumElems()*r.Kind().Size() {
			t.Errorf("%s: NumBytes=%d != NumElems*Size=%d", r.Kind(), r.NumBytes(), r.NumElems()*r.Kind().Size())
		}
	}
}

func TestCloneIsDeepAndEqual(t *testing.T) {
	for _, r := range regionsUnderTest() {
		c := r.Clone()
		if !r.EqualContents(c) || !c.EqualContents(r) {
			t.Fatalf("%s: clone not equal", r.Kind())
		}
		// Mutating the clone must not affect the original.
		switch x := c.(type) {
		case *Float64:
			x.Data[0] = 99
		case *Float32:
			x.Data[0] = 99
		case *Int32:
			x.Data[0] = 99
		case *Bytes:
			x.Data[0] = 99
		}
		if r.EqualContents(c) {
			t.Fatalf("%s: clone shares storage with original", r.Kind())
		}
	}
}

func TestCopyFromRestoresEquality(t *testing.T) {
	for _, r := range regionsUnderTest() {
		c := r.Clone()
		switch x := c.(type) {
		case *Float64:
			x.Data[1] = -77
		case *Float32:
			x.Data[1] = -77
		case *Int32:
			x.Data[1] = -77
		case *Bytes:
			x.Data[1] = 77
		}
		c.CopyFrom(r)
		if !c.EqualContents(r) {
			t.Fatalf("%s: CopyFrom did not restore contents", r.Kind())
		}
	}
}

func TestEqualContentsKindMismatch(t *testing.T) {
	f32 := &Float32{Data: []float32{1}}
	i32 := &Int32{Data: []int32{1}}
	if f32.EqualContents(i32) || i32.EqualContents(f32) {
		t.Fatal("different kinds must never be equal")
	}
	short := &Float32{Data: []float32{1, 2}}
	if f32.EqualContents(short) {
		t.Fatal("different lengths must never be equal")
	}
}

func TestEqualContentsNaN(t *testing.T) {
	// Bit-exact comparison: NaN payloads are compared as bits, so a
	// region equals its own clone even with NaNs inside.
	r := &Float64{Data: []float64{math.NaN()}}
	if !r.EqualContents(r.Clone()) {
		t.Fatal("NaN-holding region must equal its clone bit-for-bit")
	}
}

func TestFloat64AtConversions(t *testing.T) {
	f := &Float32{Data: []float32{1.5}}
	if f.Float64At(0) != 1.5 {
		t.Fatal("Float32.Float64At")
	}
	i := &Int32{Data: []int32{-3}}
	if i.Float64At(0) != -3 {
		t.Fatal("Int32.Float64At")
	}
	b := &Bytes{Data: []byte{200}}
	if b.Float64At(0) != 200 {
		t.Fatal("Bytes.Float64At")
	}
}

func TestQuickFloat64RoundTrip(t *testing.T) {
	f := func(data []float64) bool {
		r := &Float64{Data: data}
		want := leBytes(t, data)
		for i := range want {
			if r.ByteAt(i) != want[i] {
				return false
			}
		}
		return r.EqualContents(r.Clone())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickInt32RoundTrip(t *testing.T) {
	f := func(data []int32) bool {
		r := &Int32{Data: data}
		want := leBytes(t, data)
		for i := range want {
			if r.ByteAt(i) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTotalBytes(t *testing.T) {
	rs := []Region{NewFloat64(3), NewFloat32(5), NewInt32(2), NewBytes(7)}
	want := 24 + 20 + 8 + 7
	if got := TotalBytes(rs); got != want {
		t.Fatalf("TotalBytes=%d want %d", got, want)
	}
}

func TestConstructors(t *testing.T) {
	if NewFloat64(4).NumElems() != 4 || NewFloat32(4).NumElems() != 4 ||
		NewInt32(4).NumElems() != 4 || NewBytes(4).NumElems() != 4 {
		t.Fatal("constructors must allocate the requested element count")
	}
	d := []float64{1, 2}
	w := WrapFloat64(d)
	d[0] = 9
	if w.Float64At(0) != 9 {
		t.Fatal("WrapFloat64 must alias the slice")
	}
}
