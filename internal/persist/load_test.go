package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"atm/internal/core"
	"atm/internal/region"
)

// hostileChain frames body as the one record of a chain, its CRC valid,
// so the decoder reaches the body's counts.
func hostileChain(kind byte, body []byte) []byte {
	b := append([]byte{}, magic[:]...)
	b = binary.LittleEndian.AppendUint32(b, Version2)
	b = binary.LittleEndian.AppendUint64(b, 1)
	b = append(b, kind)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(body)))
	b = append(b, body...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(body))
}

// TestChainHugeCountAllocatesNothing: a record claiming 2^32−1 sections,
// entries, type rows, inserts or tombstones in a few bytes is
// truncated, and rejecting it allocates a few KiB at most — every count
// is checked against the bytes left in its body before anything is
// sized from it.
func TestChainHugeCountAllocatesNothing(t *testing.T) {
	const huge = math.MaxUint32
	u16 := binary.LittleEndian.AppendUint16
	u32 := binary.LittleEndian.AppendUint32
	u64 := binary.LittleEndian.AppendUint64
	ikt := make([]byte, 3*8)
	section := func(nent uint32, entries []byte) []byte {
		sec := append(u16(nil, 1), 'x', 0, 0)
		sec = u32(u32(u32(sec, 0), 0), nent)
		sec = append(sec, entries...)
		return append(u32(u32(append([]byte{}, ikt...), 1), uint32(len(sec))), sec...)
	}
	// One entry whose body claims 65 535 output regions.
	ebody := u16(u64(append(u64(nil, 7), 0), 9), math.MaxUint16)
	entry := u32(append(u32(nil, uint32(len(ebody))), ebody...), crc32.ChecksumIEEE(ebody))
	metaless := append(u16(u32(nil, 1), 1), 'x', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	cases := []struct {
		name string
		data []byte
	}{
		{"base sections", hostileChain(recordBase, u32(append([]byte{}, ikt...), huge))},
		{"section entries", hostileChain(recordBase, section(huge, nil))},
		{"entry regions", hostileChain(recordBase, section(1, entry))},
		{"delta types", hostileChain(recordDelta, u32(nil, huge))},
		{"delta inserts", hostileChain(recordDelta, u32(u32(nil, 0), huge))},
		{"delta tombstones", hostileChain(recordDelta, u32(u32(metaless, 0), huge))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var m0, m1 runtime.MemStats
			got := uint64(math.MaxUint64)
			for range 5 {
				runtime.ReadMemStats(&m0)
				_, _, err := UnmarshalChain(c.data)
				runtime.ReadMemStats(&m1)
				if !errors.Is(err, ErrTruncated) {
					t.Fatalf("%d-byte chain: want ErrTruncated, got %v", len(c.data), err)
				}
				got = min(got, m1.TotalAlloc-m0.TotalAlloc)
			}
			if got > 4<<10 {
				t.Fatalf("%d-byte chain: decoder allocated %d bytes, want at most 4 KiB", len(c.data), got)
			}
		})
	}
}

// bigChain is a chain of several pages: a base of 64 entries of 1 024
// floats and a delta of the rand suite's mixed regions.
func bigChain(t *testing.T) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(34))
	const fp = 0xfeed
	base := randSnapshot(rng, fp)
	sec := core.TypeSnapshot{Name: "big", Steady: true, Level: 15}
	for i := 0; i < 64; i++ {
		out := region.NewFloat64(1024)
		for j := range out.Data {
			out.Data[j] = rng.NormFloat64()
		}
		sec.Entries = append(sec.Entries, core.EntrySnapshot{Key: rng.Uint64(), Level: 15, Provider: uint64(i), Outs: []region.Region{out}})
	}
	base.Types = append(base.Types, sec)
	data, err := MarshalChain(base, []*core.Delta{randDelta(rng, fp), randDelta(rng, fp)})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestLoadChainOwnsItsResult: what LoadChain returns shares no memory
// with the file, so overwriting and truncating the file afterwards
// changes nothing — the result still re-encodes to the original bytes.
func TestLoadChainOwnsItsResult(t *testing.T) {
	eb, eds, _ := buildEvictChain(t)
	evict, err := MarshalChain(eb, eds)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string][]byte{"mixed regions": bigChain(t), "tombstones": evict} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "chain.atmsnap")
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
			base, deltas, err := LoadChain(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, bytes.Repeat([]byte{0xa5}, len(want)), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(reencode(t, base, deltas), want) {
				t.Fatal("loaded chain changed with its file: the result aliases the file")
			}
		})
	}
}

// TestLoadChainTruncatedUnderDecode shrinks a mapped chain file between
// its mapping and its decode, so the decoder reads pages the file no
// longer has: the load must fail with ErrTruncated, not kill the
// process with SIGBUS.
func TestLoadChainTruncatedUnderDecode(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("chain files are mapped on Linux only")
	}
	data := bigChain(t)
	loads := map[string]func(path string) error{
		"LoadChain": func(path string) error {
			_, _, err := LoadChain(path)
			return err
		},
		"LoadChainSalvage": func(path string) error {
			_, _, _, err := LoadChainSalvage(path)
			return err
		},
	}
	for name, load := range loads {
		for _, keep := range []int{0, len(data) / 2} {
			path := filepath.Join(t.TempDir(), "chain.atmsnap")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			hooked := false
			mappedHook = func(p string) {
				hooked = true
				if err := os.Truncate(p, int64(keep)); err != nil {
					t.Error(err)
				}
			}
			err := load(path)
			mappedHook = nil
			if !hooked {
				t.Fatalf("%s: the file was not mapped", name)
			}
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("%s, file cut to %d of %d bytes under the decoder: want ErrTruncated, got %v", name, keep, len(data), err)
			}
		}
	}
}

// TestDecodeWordsPaths: the one-copy payload decode and the portable
// element loop produce bit-identical regions, NaN payloads, signed
// zeros, infinities and subnormals included.
func TestDecodeWordsPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	specials64 := []uint64{
		0, 1 << 63, // ±0
		1, 0x000fffffffffffff, 1<<63 | 1, // subnormals
		0x7ff0000000000000, 0xfff0000000000000, // ±Inf
		0x7ff8000000000000, 0x7ff0000000000001, 0xfff4000000000abc, 0x7fffffffffffffff, // NaNs, quiet and signalling
	}
	specials32 := []uint32{0, 1 << 31, 1, 0x007fffff, 0x7f800000, 0xff800000, 0x7fc00000, 0x7f800001, 0xffa00abc}
	type path struct {
		name string
		f64  func([]float64, []byte)
		f32  func([]float32, []byte)
		i32  func([]int32, []byte)
	}
	paths := []path{{"loop", loopWords[float64], loopWords[float32], loopWords[int32]}}
	if littleEndian {
		paths = append(paths, path{"copy", copyWords[float64], copyWords[float32], copyWords[int32]})
	}
	encode := func(r region.Region) []byte {
		enc, err := appendRegion(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	for n := 0; n < 64; n++ {
		f64 := region.NewFloat64(n)
		f32 := region.NewFloat32(n)
		i32 := region.NewInt32(n)
		for i := 0; i < n; i++ {
			b64, b32 := rng.Uint64(), rng.Uint32()
			if rng.Intn(2) == 0 {
				b64, b32 = specials64[rng.Intn(len(specials64))], specials32[rng.Intn(len(specials32))]
			}
			f64.Data[i] = math.Float64frombits(b64)
			f32.Data[i] = math.Float32frombits(b32)
			i32.Data[i] = int32(b32)
		}
		for _, p := range paths {
			g64, g32, gi32 := region.NewFloat64(n), region.NewFloat32(n), region.NewInt32(n)
			p.f64(g64.Data, encode(f64)[5:])
			p.f32(g32.Data, encode(f32)[5:])
			p.i32(gi32.Data, encode(i32)[5:])
			for _, pair := range [][2]region.Region{{g64, f64}, {g32, f32}, {gi32, i32}} {
				if !bytes.Equal(encode(pair[0]), encode(pair[1])) {
					t.Fatalf("%s path, %v of %d elements: decoded bits differ from the encoded ones", p.name, pair[1].Kind(), n)
				}
			}
		}
	}
}
