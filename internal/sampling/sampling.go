// Package sampling implements ATM's input-byte selection mechanism
// (paper §III-B "Hash Key Generation" and §III-C "Type-aware Input
// Selection").
//
// The task's data inputs are viewed as a single concatenated vector of N
// bytes. A vector of N indexes into that view is shuffled once per task
// type (and cached), and the first ceil(N*p) indexes select the bytes fed
// to the hash key generator, for a percentage 0 < p <= 1.
//
// Two shuffle orders are provided:
//
//   - Plain: a uniform random permutation of all N indexes.
//   - Type-aware: indexes are grouped by byte significance within their
//     element (most significant byte first), each group is shuffled
//     independently, and the groups are concatenated MSB-group first. With
//     p = 50% on 4-byte elements, 2 of the 4 bytes of every element are
//     selected and they are always the upper ones, protecting sign and
//     exponent bits exactly as §III-C describes.
package sampling

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"atm/internal/region"
)

// MinPLevel and MaxPLevel bound the discrete percentage levels used by
// dynamic ATM: level L means p = 2^(L-15), so L=0 is p = 2^-15*100% and
// L=15 is p = 100% (static ATM). 16 configurations, as in Fig. 5.
const (
	MinPLevel = 0
	MaxPLevel = 15
)

// PFromLevel converts a discrete level to the fraction p in (0, 1].
func PFromLevel(level int) float64 {
	if level < MinPLevel {
		level = MinPLevel
	}
	if level > MaxPLevel {
		level = MaxPLevel
	}
	return 1.0 / float64(int64(1)<<uint(MaxPLevel-level))
}

// rng is a splitmix64 PRNG: tiny, fast, and stable across Go releases so
// that cached shuffle plans (and therefore hash keys) are reproducible.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform value in [0, n). n must be > 0. It uses Lemire's
// multiply-shift reduction with rejection, so the result is exactly
// uniform — the plain modulo reduction it replaces biased small values by
// up to 2^-32 relative error, which skewed long shuffles.
func (r *rng) intn(n int) int {
	un := uint64(n)
	hi, lo := bits.Mul64(r.next(), un)
	if lo < un {
		thresh := -un % un // (2^64 - n) mod n
		for lo < thresh {
			hi, lo = bits.Mul64(r.next(), un)
		}
	}
	return int(hi)
}

// Layout describes the concatenated byte view of a task's inputs: one
// segment per input region, in declaration order.
type Layout struct {
	segs  []segment
	total int
}

type segment struct {
	start    int // global byte offset of the segment
	elemSize int // element size in bytes
}

// LayoutOf builds the Layout for a list of input regions.
func LayoutOf(inputs []region.Region) Layout {
	l := Layout{segs: make([]segment, 0, len(inputs))}
	for _, in := range inputs {
		l.segs = append(l.segs, segment{start: l.total, elemSize: in.Kind().Size()})
		l.total += in.NumBytes()
	}
	return l
}

// TotalBytes reports the size N of the concatenated input view.
func (l Layout) TotalBytes() int { return l.total }

// Signature returns a value identifying the layout shape; plans may be
// shared between tasks whose layouts have equal signatures. Two layouts
// with the same signature produce identical shuffle plans.
func (l Layout) Signature() uint64 {
	// FNV-1a over (start, elemSize) pairs.
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(l.total))
	for _, s := range l.segs {
		mix(uint64(s.start))
		mix(uint64(s.elemSize))
	}
	return h
}

// SignatureOf returns the Signature of LayoutOf(inputs) without
// materializing the Layout: the allocation-free form the memoizer's hit
// path uses to find its cached plan.
func SignatureOf(inputs []region.Region) uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	total := 0
	for _, in := range inputs {
		total += in.NumBytes()
	}
	mix(uint64(total))
	start := 0
	for _, in := range inputs {
		mix(uint64(start))
		mix(uint64(in.Kind().Size()))
		start += in.NumBytes()
	}
	return h
}

// significance returns the byte's distance from the most significant byte
// of its element: 0 for the MSB, elemSize-1 for the LSB. Regions use
// little-endian byte numbering, so within an element the MSB is the byte
// with the highest local offset.
func (l Layout) significance(global int) int {
	seg := l.findSeg(global)
	off := (global - seg.start) % seg.elemSize
	return seg.elemSize - 1 - off
}

func (l Layout) findSeg(global int) segment {
	return l.segs[l.segIndex(global)]
}

// segIndex returns the index of the segment containing the global byte.
func (l Layout) segIndex(global int) int {
	lo, hi := 0, len(l.segs)
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if l.segs[mid].start <= global {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Plan is a cached shuffled index vector for one input layout. The first
// ceil(N*p) entries of Order are the bytes sampled at percentage p.
//
// Plans also cache, per discrete p level, the selection split per input
// segment (Segmented): hashing a fixed byte set in ascending segment order
// is equivalent to hashing it in shuffle order (the set is what matters)
// and lets regions stream their sampled bytes a block at a time. Each
// level's table is built once on first use and published through an
// atomic pointer, so the hot hash path reads it lock-free (one atomic load
// + array index) and levels that are never sampled — notably level 15,
// which hashes whole regions — cost nothing.
type Plan struct {
	order  []int32
	layout Layout

	buildMu   sync.Mutex
	segmented [MaxPLevel + 1]atomic.Pointer[[]Seg]
}

// Seg is one input segment's share of a level's selection. When the
// selection is the top Top bytes of every element of the segment — what
// type-aware selection makes wherever its significance groups fill
// exactly, as at levels 12–14 on float64 and 13–14 on float32 and int32 —
// Top records that and Offs is nil; Top equal to the element size is the
// whole segment. Otherwise Top is 0 and Offs holds the selected local byte
// offsets, ascending.
type Seg struct {
	Top  int
	Offs []int32
}

// NewPlan builds the shuffle plan for the layout. When typeAware is true
// the type-aware MSB-first order is used; otherwise a plain uniform
// shuffle. seed fixes the permutation (the paper shuffles once per task
// type and stores the result; callers seed with the task-type identity).
func NewPlan(l Layout, seed uint64, typeAware bool) *Plan {
	n := l.total
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	r := &rng{state: seed ^ 0xa02e1f34c7d58b69}
	if !typeAware {
		shuffle(order, r)
		return &Plan{order: order, layout: l}
	}
	// Type-aware: stable-partition indexes by significance rank, then
	// shuffle within each rank. Ranks are bounded by the largest element
	// size (8 bytes for float64).
	maxRank := 0
	for _, s := range l.segs {
		if s.elemSize-1 > maxRank {
			maxRank = s.elemSize - 1
		}
	}
	buckets := make([][]int32, maxRank+1)
	for i := 0; i < n; i++ {
		rk := l.significance(i)
		buckets[rk] = append(buckets[rk], int32(i))
	}
	out := order[:0]
	for rk := 0; rk <= maxRank; rk++ {
		start := len(out)
		out = append(out, buckets[rk]...)
		shuffle(out[start:], r)
	}
	return &Plan{order: out, layout: l}
}

func shuffle(xs []int32, r *rng) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// Len reports the total number of indexes (N).
func (p *Plan) Len() int { return len(p.order) }

// Select returns the index prefix for fraction frac in (0, 1]: the first
// ceil(N*frac) shuffled indexes, at least 1 when N > 0. The returned slice
// aliases the plan and must not be modified.
func (p *Plan) Select(frac float64) []int32 {
	n := len(p.order)
	if n == 0 {
		return nil
	}
	k := int(float64(n) * frac)
	if float64(k) < float64(n)*frac {
		k++
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return p.order[:k]
}

// Order exposes the full shuffled index vector (for tests).
func (p *Plan) Order() []int32 { return p.order }

// Segmented returns, for each input segment of the plan's layout, its
// share of the selection at the given p level. The result is built once
// per level, published atomically, and must not be modified;
// steady-state lookups are lock-free (one atomic load plus an index),
// safe for any number of concurrent readers. Hashing these per-segment
// byte streams (segments in order) is the fast equivalent of hashing
// Select(PFromLevel(level)) in shuffle order.
func (p *Plan) Segmented(level int) []Seg {
	level = min(max(level, MinPLevel), MaxPLevel)
	if s := p.segmented[level].Load(); s != nil {
		return *s
	}
	p.buildMu.Lock()
	defer p.buildMu.Unlock()
	if s := p.segmented[level].Load(); s != nil {
		return *s
	}
	segs := make([]Seg, len(p.layout.segs))
	for _, g := range p.Select(PFromLevel(level)) {
		si := p.layout.segIndex(int(g))
		segs[si].Offs = append(segs[si].Offs, g-int32(p.layout.segs[si].start))
	}
	for si := range segs {
		offs := segs[si].Offs
		sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
		if top := p.layout.topBytes(si, offs); top > 0 {
			segs[si] = Seg{Top: top}
		}
	}
	p.segmented[level].Store(&segs)
	return segs
}

// topBytes returns k when offs, a segment's selected local offsets in
// ascending order, are the top k bytes of every element of segment si,
// for k = 1, 2, 4 or 8 up to the element size; otherwise 0.
func (l Layout) topBytes(si int, offs []int32) int {
	size := l.segs[si].elemSize
	end := l.total
	if si+1 < len(l.segs) {
		end = l.segs[si+1].start
	}
	elems := (end - l.segs[si].start) / size
	if elems == 0 || len(offs)%elems != 0 {
		return 0
	}
	k := len(offs) / elems
	if k&(k-1) != 0 || k > size {
		return 0
	}
	for _, o := range offs { // distinct, and as many as the top k bytes
		if int(o)%size < size-k {
			return 0
		}
	}
	return k
}

// Resolver maps global byte indexes of the concatenated view back to
// region bytes. Build one per task instance (cheap: a prefix table).
type Resolver struct {
	inputs []region.Region
	starts []int
}

// NewResolver builds a resolver over the task's inputs. The layout of
// inputs must match the layout the plan was built for.
func NewResolver(inputs []region.Region) Resolver {
	starts := make([]int, len(inputs)+1)
	for i, in := range inputs {
		starts[i+1] = starts[i] + in.NumBytes()
	}
	return Resolver{inputs: inputs, starts: starts}
}

// ByteAt returns byte g of the concatenated input view.
func (r Resolver) ByteAt(g int) byte {
	// Linear scan is fine: tasks have a handful of inputs.
	for i := 1; i < len(r.starts); i++ {
		if g < r.starts[i] {
			return r.inputs[i-1].ByteAt(g - r.starts[i-1])
		}
	}
	panic("sampling: byte index out of range")
}

// TotalBytes reports the concatenated size.
func (r Resolver) TotalBytes() int { return r.starts[len(r.starts)-1] }
