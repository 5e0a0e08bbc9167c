package core

import (
	"sync"
	"sync/atomic"
)

// This file is the THT's budget layer: with Config.THTBudgetBytes
// set, Insert keeps the table's payload under the budget by evicting
// residents before publishing the newcomer (so a sustained over-budget
// insert stream never drives MemoryBytes past the budget). There is one
// policy: the victim is the oldest entry of the next non-empty bucket
// under the eviction hand (the per-bucket rings' own FIFO order), and a
// 4-bit count-min frequency sketch fed by every lookup decides
// admission — a newcomer estimated colder than that victim is rejected
// outright, so one-hit-wonder streams stop displacing the warm set
// (TinyLFU). The hit path stays allocation- and lock-free: a budgeted
// Lookup adds a handful of atomic nibble CASes into the sketch, an
// unbudgeted one nothing.

// admit enforces the budget before an entry of size bytes under key is
// published — before it is built, when the caller asks first (Admit): it
// evicts residents until the entry fits, and reports false when it must
// be rejected instead — larger than the budget outright, or a lost
// admission duel, either counted in admitRejects — and how many
// residents it evicted either way. Evicting
// before adding (rather than adding and trimming) is what keeps
// MemoryBytes ≤ budget at every instant of a single-threaded
// over-budget stream; concurrent inserters can overshoot by at most one
// in-flight entry each.
func (t *THT) admit(key uint64, size int64) (ok bool, evicted int) {
	if t.budget == 0 {
		return true, 0
	}
	if size > t.budget {
		t.admitRejects.Add(1)
		return false, 0
	}
	for t.memBytes.Load()+size > t.budget {
		one, reject := t.evictOne(key)
		if reject {
			t.admitRejects.Add(1)
			return false, evicted
		}
		if !one {
			break // empty table racing concurrent evictors
		}
		evicted++
	}
	return true, evicted
}

// evictOne scans buckets from the eviction hand for the next non-empty
// one, removes its oldest entry and adjusts the accounting. rejectNew
// reports an admission duel lost by the newcomer under key cand (the
// resident stays put and the newcomer must not be inserted). The scan holds one bucket lock at a time and the caller
// holds none, so eviction never nests bucket locks.
func (t *THT) evictOne(cand uint64) (evicted, rejectNew bool) {
	for range t.buckets {
		b := &t.buckets[(t.hand.Add(1)-1)&t.mask]
		b.mu.Lock()
		if b.n == 0 {
			b.mu.Unlock()
			continue
		}
		victim := b.ring[b.head].e
		if t.sketch.estimate(victim.Key) > t.sketch.estimate(cand) {
			// TinyLFU admission: the resident is estimated hotter than
			// the newcomer, so the newcomer loses.
			b.mu.Unlock()
			return false, true
		}
		b.removeAt(0)
		if t.logging.Load() {
			// Budget evictions are explicit tombstones in the operation
			// log, in bucket order — the next delta snapshot records the
			// removal so restore and compaction see it.
			b.log = append(b.log, tombstoneRec(victim))
		}
		b.mu.Unlock()
		t.memBytes.Add(-victim.bytes)
		t.entries.Add(-1)
		t.evicts.Add(1)
		t.budgetEvicts.Add(1)
		victim.Release()
		return true, false
	}
	return false, false
}

// freqSketch is TinyLFU's frequency estimator: a 4-bit count-min
// sketch, sketchRows rows of 2^sketchRowBits nibbles packed into
// atomic uint64 words (32 KiB total, allocated once). Increments are
// lock-free saturating nibble CASes; estimates take the minimum over
// the rows. After sketchAgeEvery increments every counter is halved
// (under a TryLock so the hot path never blocks), aging out stale
// frequency so the sketch tracks recent demand.
type freqSketch struct {
	words []atomic.Uint64
	mask  uint64
	adds  atomic.Int64
	ageMu sync.Mutex
}

const (
	sketchRows     = 4
	sketchRowBits  = 14
	sketchAgeEvery = 10 << sketchRowBits
)

// sketchSeeds perturb the key per row so the rows hash independently.
var sketchSeeds = [sketchRows]uint64{
	0x9e3779b97f4a7c15, 0xc2b2ae3d27d4eb4f, 0x165667b19e3779f9, 0x27d4eb2f165667c5,
}

func newFreqSketch() *freqSketch {
	width := 1 << sketchRowBits
	return &freqSketch{
		words: make([]atomic.Uint64, sketchRows*width/16),
		mask:  uint64(width - 1),
	}
}

// slot returns the word index and nibble shift of key's counter in row r.
func (s *freqSketch) slot(key uint64, r int) (word int, shift uint) {
	h := (key ^ sketchSeeds[r]) * sketchSeeds[(r+1)%sketchRows]
	i := (h >> 17) & s.mask
	return r<<(sketchRowBits-4) | int(i>>4), uint(i&15) * 4
}

// inc bumps key's counters (saturating at 15) and ages the sketch when
// due. Lock-free and allocation-free.
func (s *freqSketch) inc(key uint64) {
	for r := 0; r < sketchRows; r++ {
		w, shift := s.slot(key, r)
		for {
			old := s.words[w].Load()
			if (old>>shift)&0xf == 0xf {
				break // saturated
			}
			if s.words[w].CompareAndSwap(old, old+1<<shift) {
				break
			}
		}
	}
	if s.adds.Add(1) >= sketchAgeEvery {
		s.age()
	}
}

// estimate returns key's count-min frequency estimate.
func (s *freqSketch) estimate(key uint64) uint64 {
	est := uint64(0xf)
	for r := 0; r < sketchRows; r++ {
		w, shift := s.slot(key, r)
		if n := (s.words[w].Load() >> shift) & 0xf; n < est {
			est = n
		}
	}
	return est
}

// age halves every counter. TryLock: racing incrementers skip the
// aging rather than block, and increments lost to the halving races
// are noise the sketch tolerates by design.
func (s *freqSketch) age() {
	if !s.ageMu.TryLock() {
		return
	}
	defer s.ageMu.Unlock()
	if s.adds.Load() < sketchAgeEvery {
		return // another ager got here first
	}
	for i := range s.words {
		for {
			old := s.words[i].Load()
			if s.words[i].CompareAndSwap(old, old>>1&0x7777777777777777) {
				break
			}
		}
	}
	s.adds.Store(0)
}
