package sampling

import (
	"sort"
	"testing"

	"atm/internal/hashx"
	"atm/internal/region"
)

// expand returns a segment's selected local offsets, ascending, whether
// the segment records them or a top-byte count.
func expand(s Seg, bytes, elemSize int) []int32 {
	if s.Top == 0 {
		return s.Offs
	}
	var offs []int32
	for o := 0; o < bytes; o++ {
		if o%elemSize >= elemSize-s.Top {
			offs = append(offs, int32(o))
		}
	}
	return offs
}

func TestSegmentedCoversSelection(t *testing.T) {
	ins := []region.Region{
		region.NewFloat64(16), // bytes 0..127
		region.NewFloat32(8),  // bytes 128..159
		region.NewInt32(4),    // bytes 160..175
	}
	l := LayoutOf(ins)
	for _, typeAware := range []bool{true, false} {
		p := NewPlan(l, 77, typeAware)
		for level := 0; level <= 15; level++ {
			sel := p.Select(PFromLevel(level))
			segs := p.Segmented(level)
			if len(segs) != 3 {
				t.Fatalf("level %d: %d segments", level, len(segs))
			}
			// The segmented offsets are exactly the selected global
			// indexes, re-based per segment.
			got := map[int]bool{}
			starts := []int{0, 128, 160}
			total := 0
			for si, s := range segs {
				if s.Top != 0 && s.Offs != nil {
					t.Fatalf("level %d seg %d: top %d and an offset table", level, si, s.Top)
				}
				prev := int32(-1)
				for _, off := range expand(s, ins[si].NumBytes(), ins[si].Kind().Size()) {
					if off <= prev {
						t.Fatalf("level %d seg %d: offsets not strictly ascending", level, si)
					}
					prev = off
					got[starts[si]+int(off)] = true
					total++
				}
			}
			if total != len(sel) {
				t.Fatalf("level %d: segmented %d bytes, selected %d", level, total, len(sel))
			}
			for _, g := range sel {
				if !got[int(g)] {
					t.Fatalf("level %d: selected byte %d missing from segments", level, g)
				}
			}
		}
	}
}

// TestSegmentedTopBytes pins where type-aware selection records a
// top-byte count instead of offsets: levels 12–14 on float64 (the top 1,
// 2 and 4 bytes of every element) and 13–14 on float32 and int32 (1 and
// 2), in single-kind layouts, for every region of the layout. Level 15
// is the whole segment. A mixed layout whose significance groups do not
// fill exactly keeps offsets for its wider segment.
func TestSegmentedTopBytes(t *testing.T) {
	for _, c := range []struct {
		ins  []region.Region
		tops map[int]int // level -> top
	}{
		{[]region.Region{region.NewFloat64(77), region.NewFloat64(35)}, map[int]int{12: 1, 13: 2, 14: 4, 15: 8}},
		{[]region.Region{region.NewFloat32(77), region.NewFloat32(35)}, map[int]int{13: 1, 14: 2, 15: 4}},
		{[]region.Region{region.NewInt32(77), region.NewFloat32(35)}, map[int]int{13: 1, 14: 2, 15: 4}},
		{[]region.Region{region.NewBytes(77)}, map[int]int{15: 1}},
	} {
		for _, typeAware := range []bool{true, false} {
			p := NewPlan(LayoutOf(c.ins), 5, typeAware)
			for level := 0; level <= 15; level++ {
				want := c.tops[level]
				if !typeAware && level < 15 {
					want = 0
				}
				for si, s := range p.Segmented(level) {
					if s.Top != want {
						t.Errorf("%s type-aware=%t level %d seg %d: top %d, want %d",
							c.ins[0].Kind(), typeAware, level, si, s.Top, want)
					}
				}
			}
		}
	}
	mixed := []region.Region{region.NewFloat64(16), region.NewFloat32(8)}
	if s := NewPlan(LayoutOf(mixed), 5, true).Segmented(13)[0]; s.Top != 0 {
		t.Errorf("mixed layout level 13: float64 segment has top %d, want offsets", s.Top)
	}
}

func TestSegmentedCached(t *testing.T) {
	l := LayoutOf([]region.Region{region.NewFloat64(8)})
	p := NewPlan(l, 1, false)
	a := p.Segmented(5)
	b := p.Segmented(5)
	if len(a) != len(b) || &a[0] != &b[0] {
		t.Fatal("segmented selections must be cached per level")
	}
}

// TestHashSampleMatchesByteAt checks the sampled key's byte stream end
// to end: hashing every segment of a level through region.HashSelected
// equals hashing the level's selected bytes of the concatenated view one
// at a time, in ascending order.
func TestHashSampleMatchesByteAt(t *testing.T) {
	layouts := [][]region.Region{
		{&region.Float64{Data: []float64{1.5, -2.25, 1e-300, 4e17, 7, -8e-9, 3}}},
		{&region.Float32{Data: []float32{0.5, -1, 3e7, 2e-12, 9, 1e30, -7}}, &region.Int32{Data: []int32{1, -5, 1 << 29, -42, 7}}},
		{&region.Float64{Data: []float64{1.5, -2.25, 1e-300}}, &region.Bytes{Data: []byte{9, 8, 7, 6, 5}},
			&region.Float32{Data: []float32{0.5, -1, 3e7}}, &region.Int32{Data: []int32{1, -5, 1 << 29}}},
	}
	for li, ins := range layouts {
		r := NewResolver(ins)
		for _, typeAware := range []bool{true, false} {
			p := NewPlan(LayoutOf(ins), uint64(li), typeAware)
			for level := 0; level <= 15; level++ {
				sel := append([]int32(nil), p.Select(PFromLevel(level))...)
				sort.Slice(sel, func(i, j int) bool { return sel[i] < sel[j] })
				want := hashx.New(hashx.Lookup3, 1)
				for _, g := range sel {
					_ = want.WriteByte(r.ByteAt(int(g)))
				}
				got := hashx.New(hashx.Lookup3, 1)
				for si, s := range p.Segmented(level) {
					region.HashSelected(ins[si], s.Top, s.Offs, got)
				}
				if got.Sum64() != want.Sum64() {
					t.Fatalf("layout %d type-aware=%t level %d: sampled stream differs from ByteAt", li, typeAware, level)
				}
			}
		}
	}
}
