package core

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"atm/internal/region"
)

// The task keys are pinned by a committed golden file: a key for every
// cell of a fixed grid of input layouts, p levels, both input-selection
// orders and two engine seeds. Persisted tables are only reusable while
// keys stay what they were, so a change to the sampling or hashing code
// must leave every line of the file as it is.
//
// Regenerate the file with:
//
//	go test ./internal/core -run KeysPinned -update
//
// only after a change that is meant to move the keys.
var updateKeys = flag.Bool("update", false, "rewrite testdata/keys.golden")

const keysGolden = "testdata/keys.golden"

// pinLayouts returns the grid's input layouts: two regions of one kind
// for each kind, and two layouts that mix kinds. No element count is a
// multiple of 6 or 12, so every block loop ends on a partial block, and
// the second region of a layout starts part-way into a block.
func pinLayouts() []struct {
	name string
	ins  []region.Region
} {
	r := uint64(0x5eed)
	next := func() uint64 { r = splitmix64(r); return r }
	f64 := func(n int) region.Region {
		d := make([]float64, n)
		for i := range d {
			u := next()
			d[i] = (float64(u>>11)/(1<<53) - 0.5) * math.Ldexp(1, int(u%41)-20)
		}
		return region.WrapFloat64(d)
	}
	f32 := func(n int) region.Region {
		d := make([]float32, n)
		for i := range d {
			u := next()
			d[i] = float32((float64(u>>11)/(1<<53) - 0.5) * math.Ldexp(1, int(u%41)-20))
		}
		return region.WrapFloat32(d)
	}
	i32 := func(n int) region.Region {
		d := make([]int32, n)
		for i := range d {
			d[i] = int32(next())
		}
		return region.WrapInt32(d)
	}
	bs := func(n int) region.Region {
		d := make([]byte, n)
		for i := range d {
			d[i] = byte(next())
		}
		return region.WrapBytes(d)
	}
	return []struct {
		name string
		ins  []region.Region
	}{
		{"float64", []region.Region{f64(77), f64(35)}},
		{"float32", []region.Region{f32(77), f32(35)}},
		{"int32", []region.Region{i32(77), i32(35)}},
		{"bytes", []region.Region{bs(77), bs(35)}},
		{"mixed", []region.Region{f64(77), bs(13), f32(35), i32(53)}},
		{"mixed32", []region.Region{f32(77), i32(53)}},
	}
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pinnedKeys renders the grid: one line per layout, selection order,
// seed and level.
func pinnedKeys() string {
	var b strings.Builder
	for _, l := range pinLayouts() {
		for _, typeAware := range []bool{true, false} {
			for _, seed := range []uint64{1, 0xa7b3} {
				a := New(Config{Mode: ModeStatic, Seed: seed, DisableTypeAware: !typeAware})
				ts := a.NewType("pin")
				h := a.probeHasher()
				for level := 0; level <= 15; level++ {
					order := "plain"
					if typeAware {
						order = "typeaware"
					}
					fmt.Fprintf(&b, "%s %s seed=%d level=%d %016x\n",
						l.name, order, seed, level, a.hashIns(ts, l.ins, level, h))
				}
				a.releaseProbe(h)
			}
		}
	}
	return b.String()
}

// TestKeysPinned checks every key of the grid against the golden file.
func TestKeysPinned(t *testing.T) {
	got := pinnedKeys()
	if *updateKeys {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(keysGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(keysGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d key lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("key moved:\n got %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}
