package core

import (
	"sync"
	"testing"

	"atm/internal/region"
	"atm/internal/taskrt"
)

// TestSteadyHitPathZeroAlloc pins the PR's headline property: once a type
// is steady and its plan and THT entry exist, a memoized hit (hash +
// lookup + output copy) performs zero heap allocations.
func TestSteadyHitPathZeroAlloc(t *testing.T) {
	memo := New(Config{Mode: ModeStatic})
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo})
	defer rt.Close()
	var captured *taskrt.Task
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: func(task *taskrt.Task) {
		captured = task
		doubler(task)
	}})
	in := region.NewFloat64(512)
	for i := range in.Data {
		in.Data[i] = float64(i)
	}
	out := region.NewFloat64(512)
	rt.Submit(tt, taskrt.In(in), taskrt.Out(out)) // miss: runs, captures, warms the THT
	rt.Wait()
	if captured == nil {
		t.Fatal("body never ran")
	}

	// Drive the steady hit directly on worker 0 against the warm table.
	if got := memo.OnReady(captured, 0); got != taskrt.OutcomeMemoized {
		t.Fatalf("warm lookup must hit: outcome %v", got)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if memo.OnReady(captured, 0) != taskrt.OutcomeMemoized {
			t.Fatal("steady hit expected")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady THT hit path allocates: %v allocs/op", allocs)
	}
}

// TestLowPHitPathZeroAlloc repeats the zero-allocation check on the
// sampled (p < 100%) path, which additionally crosses the plan cache and
// the level's cached segment selection.
func TestLowPHitPathZeroAlloc(t *testing.T) {
	memo := New(Config{Mode: ModeFixed, FixedLevel: 13})
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo})
	defer rt.Close()
	var captured *taskrt.Task
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: func(task *taskrt.Task) {
		captured = task
		doubler(task)
	}})
	in := region.NewFloat64(512)
	for i := range in.Data {
		in.Data[i] = float64(i) * 0.5
	}
	out := region.NewFloat64(512)
	rt.Submit(tt, taskrt.In(in), taskrt.Out(out))
	rt.Wait()

	if got := memo.OnReady(captured, 0); got != taskrt.OutcomeMemoized {
		t.Fatalf("warm sampled lookup must hit: outcome %v", got)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if memo.OnReady(captured, 0) != taskrt.OutcomeMemoized {
			t.Fatal("steady hit expected")
		}
	})
	if allocs != 0 {
		t.Fatalf("sampled hit path allocates: %v allocs/op", allocs)
	}
}

// TestTHTConcurrentInsertLookupEvict hammers one small table from many
// goroutines so inserts constantly evict while lookups hold and release
// entries, exercising the ring buckets, the refcounts and the recycle
// pool together. Run with -race.
func TestTHTConcurrentInsertLookupEvict(t *testing.T) {
	tht := NewTHT(2, 4) // 4 buckets × 4 entries: constant eviction
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				key := uint64(i % 97)
				e := tht.GetEntry()
				want := []region.Region{&region.Float64{Data: []float64{float64(key)}}}
				if outputShapesMatch(e.Outs, want) {
					e.Outs[0].CopyFrom(want[0])
				} else {
					e.Outs = want
				}
				e.TypeID = 0
				e.Key = key
				e.Level = 15
				tht.Insert(e)
				if got := tht.Lookup(0, key, 15); got != nil {
					if got.Key != key {
						t.Errorf("corrupt entry: key %d != %d", got.Key, key)
						got.Release()
						return
					}
					if v := got.Outs[0].Float64At(0); v != float64(key) {
						t.Errorf("corrupt outputs for key %d: %v", key, v)
						got.Release()
						return
					}
					got.Release()
				}
			}
		}(g)
	}
	wg.Wait()
	if tht.Entries() > 16 {
		t.Fatalf("table overfull: %d", tht.Entries())
	}
	if tht.MemoryBytes() < 0 {
		t.Fatalf("memory accounting went negative: %d", tht.MemoryBytes())
	}
}

// TestTHTInsertIdempotentSize pins the re-insert accounting fix: inserting
// the same *Entry twice must not double-count its payload bytes.
func TestTHTInsertIdempotentSize(t *testing.T) {
	tht := NewTHT(0, 4)
	e := entryWith(0, 1, 15, 1, 2, 3, 4) // 32 payload + 24 header
	tht.Insert(e)
	first := tht.MemoryBytes()
	tht.Insert(e)
	if got := tht.MemoryBytes(); got != 2*first {
		t.Fatalf("re-insert must count the same size again, not cumulate: %d vs 2×%d", got, first)
	}
}

// TestEntryRecycleReusesBuffers checks the pool round-trip: an evicted,
// released entry's output buffers come back from GetEntry.
func TestEntryRecycleReusesBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode drops sync.Pool puts at random; recycling is not assertable")
	}
	tht := NewTHT(0, 1) // capacity 1: second insert evicts the first
	e1 := entryWith(0, 1, 15, 1, 2)
	tht.Insert(e1)
	buf := e1.Outs[0].(*region.Float64)
	tht.Insert(entryWith(0, 2, 15, 3, 4)) // evicts e1 → refs 0 → pooled
	e := tht.GetEntry()
	if e != e1 || e.Outs[0].(*region.Float64) != buf {
		t.Fatal("evicted entry must be recycled through the pool with its buffers")
	}
}

// TestLookupHoldsEvictedEntry pins the safety property behind the
// refcounts: an entry evicted while a reader still holds it must stay
// intact (not recycled) until the reader releases it.
func TestLookupHoldsEvictedEntry(t *testing.T) {
	tht := NewTHT(0, 1)
	e1 := entryWith(0, 1, 15, 42)
	tht.Insert(e1)
	held := tht.Lookup(0, 1, 15)
	if held == nil {
		t.Fatal("lookup must hit")
	}
	tht.Insert(entryWith(0, 2, 15, 7)) // evicts e1 while held
	if got := tht.GetEntry(); got == e1 {
		t.Fatal("held entry must not be recycled")
	}
	if held.Outs[0].Float64At(0) != 42 {
		t.Fatal("held entry corrupted after eviction")
	}
	held.Release() // now it may be pooled
	if raceEnabled {
		return // race mode drops sync.Pool puts at random
	}
	for i := 0; i < 4; i++ {
		if tht.GetEntry() == e1 {
			return // recycled after the last reference dropped
		}
	}
	t.Fatal("released evicted entry never reached the pool")
}

// TestAlternatingShapesReuseEntries pins the per-type entry pools: two
// types whose outputs have different shapes insert in turn into a
// bucket that holds two entries, so every insert replaces the oldest
// entry and recycles it. Each insert must draw its own type's recycled
// entry and copy into its buffers: no clone, no allocation, after
// warm-up. A pool shared by both types hands each insert the other
// type's entry.
func TestAlternatingShapesReuseEntries(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode drops sync.Pool puts at random; recycling is not assertable")
	}
	a := New(Config{Mode: ModeStatic, M: 2})
	small, large := a.NewType("small"), a.NewType("large")
	outSmall := []region.Region{region.NewFloat64(16)}
	outLarge := []region.Region{region.NewFloat64(40), region.NewInt32(3)}
	key := uint64(0)
	insert := func() {
		key += 1 << 8 // every key in bucket 0
		a.memoize(small, outSmall, 1, key, 15)
		key += 1 << 8
		a.memoize(large, outLarge, 1, key, 15)
	}
	for i := 0; i < 4; i++ {
		insert()
	}
	if allocs := testing.AllocsPerRun(100, insert); allocs != 0 {
		t.Fatalf("alternating two output shapes allocates %v per pair of inserts", allocs)
	}
	if n := a.tht.Entries(); n != 2 {
		t.Fatalf("%d resident entries, want the bucket's 2", n)
	}
}
