package hashx

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// lookup3Ref is the Lookup3 stream in one shot over a materialized byte
// string: Jenkins' lookup3 rounds on 12-byte little-endian blocks,
// seeded as hashlittle2 is, with the total length folded in at the end
// instead of the start (the one deviation streaming forces). No
// buffering and no bulk strides: what every write path must reduce to.
func lookup3Ref(p []byte, seed uint64) uint64 {
	a := 0xdeadbeef + uint32(seed)
	b, c := a, a+uint32(seed>>32)
	total := len(p)
	for ; len(p) >= 12; p = p[12:] {
		a += le32(p[0:4])
		b += le32(p[4:8])
		c += le32(p[8:12])
		a, b, c = mix(a, b, c)
	}
	var tail [12]byte // zero padding adds nothing
	copy(tail[:], p)
	a += uint32(total) + le32(tail[0:4])
	b += le32(tail[4:8])
	c += le32(tail[8:12])
	a, b, c = final(a, b, c)
	return uint64(c) | uint64(b)<<32
}

// byteLog is a Hasher that records the logical byte stream written to
// it: the input lookup3Ref takes.
type byteLog []byte

func (l *byteLog) Reset()                 { *l = (*l)[:0] }
func (l *byteLog) ResetSeed(uint64)       { l.Reset() }
func (l *byteLog) WriteByte(b byte) error { *l = append(*l, b); return nil }
func (l *byteLog) WriteUint32(u uint32)   { *l = binary.LittleEndian.AppendUint32(*l, u) }
func (l *byteLog) WriteUint64(u uint64)   { *l = binary.LittleEndian.AppendUint64(*l, u) }
func (l *byteLog) WriteBytes(p []byte)    { *l = append(*l, p...) }
func (l *byteLog) Sum64() uint64          { return 0 }

func (l *byteLog) WriteFloat64s(d []float64) {
	for _, v := range d {
		l.WriteUint64(math.Float64bits(v))
	}
}

func (l *byteLog) WriteFloat32s(d []float32) {
	for _, v := range d {
		l.WriteUint32(math.Float32bits(v))
	}
}

func (l *byteLog) WriteInt32s(d []int32) {
	for _, v := range d {
		l.WriteUint32(uint32(v))
	}
}

func (l *byteLog) WriteFloat64sTop(d []float64, k int) {
	for _, v := range d {
		*l = append(*l, binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))[8-k:]...)
	}
}

func (l *byteLog) WriteFloat32sTop(d []float32, k int) {
	for _, v := range d {
		*l = append(*l, binary.LittleEndian.AppendUint32(nil, math.Float32bits(v))[4-k:]...)
	}
}

func (l *byteLog) WriteInt32sTop(d []int32, k int) {
	for _, v := range d {
		*l = append(*l, binary.LittleEndian.AppendUint32(nil, uint32(v))[4-k:]...)
	}
}

// TestLookup3MatchesJenkins pins the hasher to Jenkins' lookup3
// rounds in their streaming form (lookup3Ref): a mixed stream through
// every write method hashes as the one-shot reference does over the
// same bytes. TestKnownAnswers pins the rounds themselves.
func TestLookup3MatchesJenkins(t *testing.T) {
	for _, seed := range []uint64{0, 1, 0x5ee0, 0xdeadbeefcafef00d} {
		for ops := 0; ops <= 64; ops += 8 {
			h := New(Lookup3, seed)
			var log byteLog
			writeStream(h, rand.New(rand.NewSource(int64(ops))), ops)
			writeStream(&log, rand.New(rand.NewSource(int64(ops))), ops)
			if got, want := h.Sum64(), lookup3Ref(log, seed); got != want {
				t.Fatalf("seed %#x, %d ops (%d bytes): Lookup3 %#x != reference %#x", seed, ops, len(log), got, want)
			}
		}
	}
}

// TestLookup3BulkWritesMatchElementwise pins the contract region's fast
// paths rely on: every bulk Write*s method produces exactly the hash the
// element-wise WriteUint32/WriteUint64/WriteByte stream would, from
// every buffer alignment.
func TestLookup3BulkWritesMatchElementwise(t *testing.T) {
	f := func(seed uint64, d64 []float64, d32 []float32, i32 []int32, bs []byte, prefix uint8) bool {
		slow, fast := New(Lookup3, seed), New(Lookup3, seed)
		for i := 0; i < int(prefix%12); i++ {
			_ = slow.WriteByte(byte(i * 7))
			_ = fast.WriteByte(byte(i * 7))
		}

		for _, v := range d64 {
			slow.WriteUint64(math.Float64bits(v))
		}
		fast.WriteFloat64s(d64)
		if slow.Sum64() != fast.Sum64() {
			return false
		}

		for _, v := range d32 {
			slow.WriteUint32(math.Float32bits(v))
		}
		fast.WriteFloat32s(d32)
		if slow.Sum64() != fast.Sum64() {
			return false
		}

		for _, v := range i32 {
			slow.WriteUint32(uint32(v))
		}
		fast.WriteInt32s(i32)
		if slow.Sum64() != fast.Sum64() {
			return false
		}

		for _, b := range bs {
			_ = slow.WriteByte(b)
		}
		fast.WriteBytes(bs)
		return slow.Sum64() == fast.Sum64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestLookup3TopWritesMatchBytes pins the top-byte writes: for every
// element type, every k it takes and every buffer fill, they hash the
// top k bytes of each element in the order WriteByte would get them.
func TestLookup3TopWritesMatchBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d64, d32, i32 := make([]float64, 205), make([]float32, 205), make([]int32, 205)
	for i := range d64 {
		d64[i] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(80)-40)
		d32[i] = float32(rng.NormFloat64() * math.Ldexp(1, rng.Intn(40)-20))
		i32[i] = int32(rng.Uint32())
	}
	for _, n := range []int{0, 1, 5, 6, 11, 12, 13, 37, 205} {
		for align := 0; align < 12; align++ {
			for _, k := range []int{1, 2, 4} {
				check := func(kind string, write func(Hasher), want []byte) {
					t.Helper()
					fast, slow := New(Lookup3, 3), New(Lookup3, 3)
					for i := 0; i < align; i++ {
						_ = fast.WriteByte(byte(i))
						_ = slow.WriteByte(byte(i))
					}
					write(fast)
					slow.WriteBytes(want)
					if fast.Sum64() != slow.Sum64() {
						t.Fatalf("%s top %d, %d elements, align %d: digest differs from the byte stream", kind, k, n, align)
					}
				}
				var log byteLog
				log.WriteFloat64sTop(d64[:n], k)
				check("float64", func(h Hasher) { h.WriteFloat64sTop(d64[:n], k) }, log)
				if k == 4 {
					continue // the whole 32-bit element: WriteFloat32s, WriteInt32s
				}
				log = nil
				log.WriteFloat32sTop(d32[:n], k)
				check("float32", func(h Hasher) { h.WriteFloat32sTop(d32[:n], k) }, log)
				log = nil
				log.WriteInt32sTop(i32[:n], k)
				check("int32", func(h Hasher) { h.WriteInt32sTop(i32[:n], k) }, log)
			}
		}
	}
}

// TestLookup3WordsMatchByteAtATime: WriteUint32/WriteUint64 produce the
// stream of the equivalent WriteByte sequence.
func TestLookup3WordsMatchByteAtATime(t *testing.T) {
	f := func(words []uint32, dwords []uint64, seed uint64) bool {
		a, b := New(Lookup3, seed), New(Lookup3, seed)
		for _, w := range words {
			a.WriteUint32(w)
			for s := 0; s < 32; s += 8 {
				_ = b.WriteByte(byte(w >> s))
			}
		}
		for _, d := range dwords {
			a.WriteUint64(d)
			for s := 0; s < 64; s += 8 {
				_ = b.WriteByte(byte(d >> s))
			}
		}
		return a.Sum64() == b.Sum64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestLookup3WriteBytesMatchesWriteByte is TestWriteBytesEquivalence
// over arbitrary lengths and seeds.
func TestLookup3WriteBytesMatchesWriteByte(t *testing.T) {
	f := func(data []byte, seed uint64) bool {
		a, b := New(Lookup3, seed), New(Lookup3, seed)
		a.WriteBytes(data)
		for _, x := range data {
			_ = b.WriteByte(x)
		}
		return a.Sum64() == b.Sum64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLookup3Reset(t *testing.T) {
	s := New(Lookup3, 9)
	s.WriteBytes([]byte("garbage, more than one twelve-byte block"))
	s.Reset()
	s.WriteBytes([]byte("abc"))
	fresh := New(Lookup3, 9)
	fresh.WriteBytes([]byte("abc"))
	if s.Sum64() != fresh.Sum64() {
		t.Fatal("Reset must restore the initial state")
	}
}

// TestLookup3ResetSeed: ResetSeed fully restores the seeded initial
// state, and both seed halves matter (the high half seeds c).
func TestLookup3ResetSeed(t *testing.T) {
	a := New(Lookup3, 1)
	a.WriteUint64(42)
	k1 := a.Sum64()
	for _, seed := range []uint64{2, 1 | 1<<32} {
		a.ResetSeed(seed)
		a.WriteUint64(42)
		if a.Sum64() == k1 {
			t.Fatalf("seeds 1 and %#x must give different keys", seed)
		}
	}
	a.ResetSeed(1)
	a.WriteUint64(42)
	if a.Sum64() != k1 {
		t.Fatal("ResetSeed must fully restore the seeded initial state")
	}
}

// TestLookup3Sum64IsRepeatable: Sum64 over a buffered partial block
// consumes nothing, and writes after it continue the same stream.
func TestLookup3Sum64IsRepeatable(t *testing.T) {
	s := New(Lookup3, 3)
	s.WriteBytes([]byte("hello, tasks"))
	h1 := s.Sum64()
	if h2 := s.Sum64(); h1 != h2 {
		t.Fatalf("Sum64 consumed state: %#x then %#x", h1, h2)
	}
	_ = s.WriteByte('!')
	s2 := New(Lookup3, 3)
	s2.WriteBytes([]byte("hello, tasks!"))
	if s.Sum64() != s2.Sum64() {
		t.Fatal("writes after Sum64 diverge from a fresh stream")
	}
}

func TestLookup3LengthMatters(t *testing.T) {
	// {1, 2} must differ from {1, 2, 0}: the length fold must tell a
	// written zero byte from absence.
	a, b := New(Lookup3, 0), New(Lookup3, 0)
	a.WriteBytes([]byte{1, 2})
	b.WriteBytes([]byte{1, 2, 0})
	if a.Sum64() == b.Sum64() {
		t.Fatal("trailing zero byte must change the hash")
	}
}

func TestLookup3LowBitDispersal(t *testing.T) {
	// Bucketing sequential integers by the low 8 bits of their hash
	// should roughly balance — the THT indexes buckets by the low bits.
	const n, buckets = 4096, 256
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		s := New(Lookup3, 0)
		s.WriteUint64(uint64(i))
		counts[s.Sum64()&(buckets-1)]++
	}
	for b, c := range counts {
		if c > 4*n/buckets {
			t.Fatalf("bucket %d holds %d of %d hashes (poor dispersal)", b, c, n)
		}
	}
}
