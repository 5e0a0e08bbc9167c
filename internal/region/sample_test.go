package region

import (
	"testing"
	"testing/quick"

	"atm/internal/hashx"
)

func sampleTestRegions() []Region {
	f64 := NewFloat64(41)
	f32 := NewFloat32(41)
	i32 := NewInt32(41)
	bs := NewBytes(163)
	for i := 0; i < 41; i++ {
		f64.Data[i] = float64(i)*1.7e-3 + 1e9 - float64(i*i)*3e7
		f32.Data[i] = float32(i) * -2.5e7
		i32.Data[i] = int32(i*7919) - 1<<30
	}
	for i := range bs.Data {
		bs.Data[i] = byte(i * 13)
	}
	return []Region{f64, f32, i32, bs, foreign{f64}}
}

// foreign is a Region of a type HashSelected does not know: it takes the
// byte-by-byte path.
type foreign struct{ *Float64 }

// byteDigest hashes the bytes of r at offs one WriteByte at a time, after
// a prefix of align bytes: the stream HashSelected must reproduce.
func byteDigest(r Region, offs []int, align int) uint64 {
	h := hashx.New(hashx.Lookup3, 7)
	for i := 0; i < align; i++ {
		_ = h.WriteByte(byte(i))
	}
	for _, o := range offs {
		_ = h.WriteByte(r.ByteAt(o))
	}
	return h.Sum64()
}

func selectedDigest(r Region, top int, offs []int32, align int) uint64 {
	h := hashx.New(hashx.Lookup3, 7)
	for i := 0; i < align; i++ {
		_ = h.WriteByte(byte(i))
	}
	HashSelected(r, top, offs, h)
	return h.Sum64()
}

// TestHashSelectedMatchesByteAt checks, for every region kind, that an
// offset selection hashes exactly the bytes ByteAt reads at those
// offsets, for arbitrary selections and from every hasher buffer fill.
func TestHashSelectedMatchesByteAt(t *testing.T) {
	f := func(seed uint64, density, align uint8) bool {
		for _, r := range sampleTestRegions() {
			var offs []int32
			var want []int
			s := seed
			for i := 0; i < r.NumBytes(); i++ {
				s = s*6364136223846793005 + 1442695040888963407
				if uint8(s>>56) < density {
					offs = append(offs, int32(i))
					want = append(want, i)
				}
			}
			if selectedDigest(r, 0, offs, int(align%12)) != byteDigest(r, want, int(align%12)) {
				t.Logf("%T: %d offsets, align %d", r, len(offs), align%12)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestHashSelectedTopBytes checks that a top-k selection hashes the top
// k bytes of every element, in element order, for every k up to the
// element size (k equal to it is the whole payload), from every hasher
// buffer fill.
func TestHashSelectedTopBytes(t *testing.T) {
	for _, r := range sampleTestRegions() {
		size := r.Kind().Size()
		for _, n := range []int{0, 1, 5, 6, 11, 12, 13, 25, r.NumElems()} {
			sub := prefix(r, n)
			for k := 1; k <= size; k *= 2 {
				var want []int
				for o := 0; o < sub.NumBytes(); o++ {
					if o%size >= size-k {
						want = append(want, o)
					}
				}
				for align := 0; align < 12; align++ {
					if selectedDigest(sub, k, nil, align) != byteDigest(sub, want, align) {
						t.Fatalf("%T: %d elements, top %d, align %d: digest differs", r, n, k, align)
					}
				}
			}
		}
	}
}

// prefix returns r's first n elements as a region of r's type.
func prefix(r Region, n int) Region {
	switch r := r.(type) {
	case *Float64:
		return WrapFloat64(r.Data[:n])
	case *Float32:
		return WrapFloat32(r.Data[:n])
	case *Int32:
		return WrapInt32(r.Data[:n])
	case *Bytes:
		return WrapBytes(r.Data[:n])
	default:
		return foreign{WrapFloat64(r.(foreign).Data[:n])}
	}
}
