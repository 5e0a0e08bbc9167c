package hashx

import (
	"math"
	"math/rand"
	"testing"
)

// writeStream pushes a deterministic mixed-type stream through h using
// the given element schedule, exercising every Hasher write method.
func writeStream(h Hasher, rng *rand.Rand, ops int) {
	for i := 0; i < ops; i++ {
		switch rng.Intn(11) {
		case 0:
			_ = h.WriteByte(byte(rng.Uint32()))
		case 1:
			h.WriteFloat64sTop([]float64{rng.NormFloat64()}, 2)
		case 2:
			h.WriteUint32(rng.Uint32())
		case 3:
			h.WriteUint64(rng.Uint64())
		case 4:
			d := make([]float64, rng.Intn(40))
			for j := range d {
				d[j] = rng.NormFloat64()
			}
			h.WriteFloat64s(d)
		case 5:
			d := make([]float32, rng.Intn(70))
			for j := range d {
				d[j] = float32(rng.NormFloat64())
			}
			h.WriteFloat32s(d)
		case 6:
			d := make([]int32, rng.Intn(70))
			for j := range d {
				d[j] = rng.Int31() - 1<<30
			}
			h.WriteInt32s(d)
		case 7:
			p := make([]byte, rng.Intn(200))
			rng.Read(p)
			h.WriteBytes(p)
		case 8:
			d := make([]float64, rng.Intn(40))
			for j := range d {
				d[j] = rng.NormFloat64()
			}
			h.WriteFloat64sTop(d, 1<<rng.Intn(3))
		case 9:
			d := make([]float32, rng.Intn(70))
			for j := range d {
				d[j] = float32(rng.NormFloat64())
			}
			h.WriteFloat32sTop(d, 1+rng.Intn(2))
		case 10:
			d := make([]int32, rng.Intn(70))
			for j := range d {
				d[j] = rng.Int31() - 1<<30
			}
			h.WriteInt32sTop(d, 1+rng.Intn(2))
		}
	}
}

// TestStreamEquivalence checks the core Hasher contract: any
// decomposition of the same logical byte stream — byte-at-a-time, word
// writes, or bulk typed slices — yields the same Sum64.
func TestStreamEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(400)
		d := make([]float64, n)
		for i := range d {
			d[i] = rng.NormFloat64()
		}
		seed := rng.Uint64()

		bulk := New(Lookup3, seed)
		bulk.WriteFloat64s(d)

		words := New(Lookup3, seed)
		for _, v := range d {
			words.WriteUint64(math.Float64bits(v))
		}

		bytewise := New(Lookup3, seed)
		for _, v := range d {
			u := math.Float64bits(v)
			for k := 0; k < 64; k += 8 {
				_ = bytewise.WriteByte(byte(u >> k))
			}
		}

		// Split the bulk write at a random point to cross block
		// boundaries mid-slice.
		split := New(Lookup3, seed)
		cut := 0
		if n > 0 {
			cut = rng.Intn(n)
		}
		split.WriteFloat64s(d[:cut])
		split.WriteFloat64s(d[cut:])

		want := bulk.Sum64()
		if got := words.Sum64(); got != want {
			t.Fatalf("n=%d: word path %#x != bulk %#x", n, got, want)
		}
		if got := bytewise.Sum64(); got != want {
			t.Fatalf("n=%d: byte path %#x != bulk %#x", n, got, want)
		}
		if got := split.Sum64(); got != want {
			t.Fatalf("n=%d cut=%d: split path %#x != bulk %#x", n, cut, got, want)
		}
	}
}

// TestStreamEquivalence32 is the 32-bit-element analogue: float32 and
// int32 bulk writes must equal the equivalent word-wise writes.
func TestStreamEquivalence32(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(500)
		f32 := make([]float32, n)
		i32 := make([]int32, n)
		for i := range f32 {
			f32[i] = float32(rng.NormFloat64())
			i32[i] = rng.Int31()
		}
		seed := rng.Uint64()

		a := New(Lookup3, seed)
		a.WriteFloat32s(f32)
		a.WriteInt32s(i32)

		b := New(Lookup3, seed)
		for _, v := range f32 {
			b.WriteUint32(math.Float32bits(v))
		}
		for _, v := range i32 {
			b.WriteUint32(uint32(v))
		}

		if got, want := a.Sum64(), b.Sum64(); got != want {
			t.Fatalf("n=%d: bulk %#x != word %#x", n, got, want)
		}
	}
}

// TestWriteBytesEquivalence checks WriteBytes against byte-at-a-time.
func TestWriteBytesEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, 11, 12, 47, 48, 63, 64, 65, 100, 1023, 1024, 1025, 4096} {
		p := make([]byte, n)
		rng.Read(p)
		a := New(Lookup3, 99)
		a.WriteBytes(p)
		b := New(Lookup3, 99)
		for _, x := range p {
			_ = b.WriteByte(x)
		}
		if got, want := a.Sum64(), b.Sum64(); got != want {
			t.Fatalf("n=%d: WriteBytes %#x != bytewise %#x", n, got, want)
		}
	}
}

// TestSumNonConsuming verifies Sum64 can be called mid-stream without
// perturbing subsequent writes, and repeatedly with a stable result.
func TestSumNonConsuming(t *testing.T) {
	d := make([]float64, 77)
	for i := range d {
		d[i] = float64(i) * 1.5
	}
	a := New(Lookup3, 5)
	a.WriteFloat64s(d[:30])
	mid1 := a.Sum64()
	if mid2 := a.Sum64(); mid2 != mid1 {
		t.Fatalf("repeated Sum64: %#x then %#x", mid1, mid2)
	}
	a.WriteFloat64s(d[30:])

	b := New(Lookup3, 5)
	b.WriteFloat64s(d)
	if got, want := a.Sum64(), b.Sum64(); got != want {
		t.Fatalf("post-Sum64 writes diverge: %#x != %#x", got, want)
	}
}

// TestResetSeed verifies ResetSeed makes a hasher equivalent to a fresh
// New under the new seed (including seed-unchanged resets, the worker
// fast path), and that seeds actually matter.
func TestResetSeed(t *testing.T) {
	d := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	h := New(Lookup3, 111)
	h.WriteFloat64s(d)
	first := h.Sum64()

	h.ResetSeed(222)
	h.WriteFloat64s(d)
	second := h.Sum64()
	fresh := New(Lookup3, 222)
	fresh.WriteFloat64s(d)
	if want := fresh.Sum64(); second != want {
		t.Fatalf("ResetSeed(222) %#x != fresh New %#x", second, want)
	}
	if second == first {
		t.Fatalf("seeds 111 and 222 collide: %#x", first)
	}

	h.ResetSeed(222) // unchanged-seed reset
	h.WriteFloat64s(d)
	if got := h.Sum64(); got != second {
		t.Fatalf("same-seed ResetSeed diverges: %#x != %#x", got, second)
	}

	h.ResetSeed(111)
	h.WriteFloat64s(d)
	if got := h.Sum64(); got != first {
		t.Fatalf("ResetSeed back to 111: %#x != %#x", got, first)
	}
}

// TestKnownAnswers pins the Lookup3 digest of a fixed stream so an
// accidental algorithm change (which would orphan every persisted
// snapshot keyed under the old stream) fails loudly. Update it ONLY with
// a deliberate format-breaking change.
func TestKnownAnswers(t *testing.T) {
	h := New(Lookup3, 0x1234)
	for i := 0; i < 300; i++ {
		h.WriteUint64(uint64(i) * 0x9e3779b97f4a7c15)
	}
	h.WriteBytes([]byte("atm-hashx"))
	if got, want := h.Sum64(), uint64(0x1f4045e51843875d); got != want {
		t.Errorf("Lookup3 digest = %#016x, want %#016x (algorithm changed?)", got, want)
	}
}

// TestDistribution is a cheap sanity check that single-bit input flips
// change the output (no stuck bits across a sample of flips).
func TestDistribution(t *testing.T) {
	base := make([]byte, 256)
	for i := range base {
		base[i] = byte(i)
	}
	ref := New(Lookup3, 1)
	ref.WriteBytes(base)
	r := ref.Sum64()
	var orDiff, andDiff uint64 = 0, ^uint64(0)
	for bit := 0; bit < 256*8; bit += 37 {
		p := make([]byte, len(base))
		copy(p, base)
		p[bit/8] ^= 1 << (bit % 8)
		h := New(Lookup3, 1)
		h.WriteBytes(p)
		d := h.Sum64() ^ r
		if d == 0 {
			t.Fatalf("bit flip %d: collision with base", bit)
		}
		orDiff |= d
		andDiff &= d
	}
	if orDiff != ^uint64(0) {
		t.Errorf("some output bits never flipped: or-diff %#016x", orDiff)
	}
	if andDiff != 0 {
		t.Errorf("some output bits always flipped: and-diff %#016x", andDiff)
	}
}
