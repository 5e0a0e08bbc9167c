package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// entrySize is the byte cost of a 4-value entryWith: 32 bytes of
// payload plus the 24-byte key/provider/header cost the accounting
// charges (pinned by TestTHTMemoryAccounting).
const entrySize = 4*8 + 24

func TestTHTBudgetBoundedSingleThreaded(t *testing.T) {
	// A sustained over-budget insert stream must hold MemoryBytes at or
	// under the budget at every step: admit evicts before publishing,
	// never after.
	const budget = 10 * entrySize
	tht := NewTHT(2, 8)
	tht.ConfigureBudget(budget)
	for i := 0; i < 200; i++ {
		tht.Insert(entryWith(0, uint64(i), 15, 1, 2, 3, 4))
		if got := tht.MemoryBytes(); got > budget {
			t.Fatalf("insert %d: MemoryBytes %d > budget %d", i, got, budget)
		}
	}
	if tht.Entries() != 10 {
		t.Fatalf("entries=%d want the budget's worth (10)", tht.Entries())
	}
	evicts, rejects := tht.BudgetCounters()
	if evicts != 190 || rejects != 0 {
		t.Fatalf("budget evictions=%d rejects=%d want 190, 0", evicts, rejects)
	}
}

func TestTHTBudgetBoundedConcurrent(t *testing.T) {
	// Concurrent inserters may each hold one admitted-but-unpublished
	// entry, so the hard ceiling is budget + workers×entrySize. The
	// accounting applies ring replacements as one net delta per counter;
	// the old add-then-subtract order let a sampler observe a transient
	// extra entry per in-flight insert, which this bound has no room for.
	const (
		budget    = 20 * entrySize
		workers   = 8
		perWorker = 2000
		ceiling   = budget + workers*entrySize
	)
	tht := NewTHT(4, 4)
	tht.ConfigureBudget(budget)

	var (
		wg      sync.WaitGroup
		maxSeen atomic.Int64
		stop    = make(chan struct{})
		sampled sync.WaitGroup
	)
	sampled.Add(1)
	go func() {
		defer sampled.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if m := tht.MemoryBytes(); m > maxSeen.Load() {
				maxSeen.Store(m)
			}
		}
	}()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tht.Insert(entryWith(0, uint64(g*1_000_000+i), 15, 1, 2, 3, 4))
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	sampled.Wait()

	if m := maxSeen.Load(); m > ceiling {
		t.Fatalf("sampled MemoryBytes peaked at %d, ceiling %d (budget %d + %d inserters)",
			m, ceiling, budget, workers)
	}
	if m := tht.MemoryBytes(); m > budget {
		t.Fatalf("quiesced MemoryBytes %d > budget %d", m, budget)
	}
}

func TestUnbudgetedTHTHasNoSketch(t *testing.T) {
	// The admission sketch exists exactly when there is a budget: an
	// unbounded table pays nothing for it, neither memory nor a sketch
	// increment per lookup, and its Lookup stays allocation-free.
	tht := NewTHT(2, 8)
	tht.ConfigureBudget(0)
	if tht.sketch != nil {
		t.Fatal("unbudgeted table allocated an admission sketch")
	}
	tht.Insert(entryWith(0, 1, 15, 1, 2, 3, 4))
	allocs := testing.AllocsPerRun(100, func() {
		tht.Lookup(0, 1, 15).Release()
		tht.Lookup(0, 2, 15).Release() // nil-safe miss
	})
	if allocs != 0 {
		t.Fatalf("unbudgeted Lookup allocates %.1f times per call pair, want 0", allocs)
	}
	tht.ConfigureBudget(1 << 20)
	if tht.sketch == nil {
		t.Fatal("budgeted table has no admission sketch")
	}
}

func TestTHTTinyLFUAdmissionDuel(t *testing.T) {
	tht := NewTHT(0, 8)
	tht.ConfigureBudget(2 * entrySize)
	tht.Insert(entryWith(0, 1, 15, 1, 2, 3, 4))
	tht.Insert(entryWith(0, 2, 15, 1, 2, 3, 4))
	// Residents are hot: every lookup feeds the frequency sketch.
	for i := 0; i < 8; i++ {
		tht.Lookup(0, 1, 15).Release()
		tht.Lookup(0, 2, 15).Release()
	}
	// A cold newcomer loses the admission duel against the hotter
	// would-be victim and is rejected without displacing anything.
	tht.Insert(entryWith(0, 99, 15, 1, 2, 3, 4))
	if tht.Lookup(0, 99, 15) != nil {
		t.Fatal("cold newcomer must lose the admission duel")
	}
	if tht.Lookup(0, 1, 15) == nil || tht.Lookup(0, 2, 15) == nil {
		t.Fatal("residents must survive a rejected insert")
	}
	if _, rejects := tht.BudgetCounters(); rejects != 1 {
		_, r := tht.BudgetCounters()
		t.Fatalf("admission rejects=%d want 1", r)
	}

	// The reverse: demand observed through lookups (even misses) warms
	// the newcomer, which then wins the duel against a cold resident.
	tht2 := NewTHT(0, 8)
	tht2.ConfigureBudget(2 * entrySize)
	tht2.Insert(entryWith(0, 1, 15, 1, 2, 3, 4))
	tht2.Insert(entryWith(0, 2, 15, 1, 2, 3, 4))
	for i := 0; i < 8; i++ {
		tht2.Lookup(0, 99, 15) // misses, but register demand
	}
	tht2.Insert(entryWith(0, 99, 15, 1, 2, 3, 4))
	if tht2.Lookup(0, 99, 15) == nil {
		t.Fatal("warm newcomer must win the admission duel")
	}
	if tht2.Lookup(0, 1, 15) != nil {
		t.Fatal("cold oldest resident must be the victim")
	}
}

// TestRejectedInsertKeepsHeldEntry: an insert admission rejects
// recycles its entry only when nothing references it. A reader's (or
// the table's own) reference keeps a rejected entry out of the pool,
// where GetEntry would hand its buffers to the next insert to overwrite.
func TestRejectedInsertKeepsHeldEntry(t *testing.T) {
	tht := NewTHT(0, 8)
	tht.ConfigureBudget(2 * entrySize)
	vals := make([]float64, 16) // larger than the budget: rejected outright
	held := entryWith(0, 7, 15, vals...)
	held.retain() // a reader's reference
	tht.Insert(held)
	if _, rejects := tht.BudgetCounters(); rejects != 1 {
		t.Fatalf("admission rejects=%d want 1", rejects)
	}
	if got := tht.GetEntry(); got == held {
		t.Fatal("a rejected entry a reader holds went back to the pool")
	}
	held.Release()

	free := entryWith(0, 8, 15, vals...)
	tht.Insert(free)
	if raceEnabled {
		return // race mode drops sync.Pool puts at random; the round-trip is not assertable
	}
	if got := tht.GetEntry(); got != free {
		t.Fatal("a rejected entry nothing holds must go back to the pool")
	}
}

func TestTHTBudgetEvictionLogsTombstone(t *testing.T) {
	// Budget evictions must be visible to the delta machinery: each one
	// appends a tombstone record (e == nil, victim identity copied) to
	// its bucket's log, in operation order.
	tht := NewTHT(0, 8)
	tht.ConfigureBudget(2 * entrySize)
	tht.SetLogging(true)
	for i := 1; i <= 3; i++ {
		tht.Insert(entryWith(0, uint64(i), 15, 1, 2, 3, 4))
	}
	log := tht.DrainLog()
	var kinds []string
	var tombKey uint64
	for _, r := range log {
		if r.e == nil {
			kinds = append(kinds, "tombstone")
			tombKey = r.key
		} else {
			kinds = append(kinds, "insert")
			r.e.Release()
		}
	}
	want := []string{"insert", "insert", "tombstone", "insert"}
	if len(kinds) != len(want) {
		t.Fatalf("log records %v want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("log records %v want %v", kinds, want)
		}
	}
	if tombKey != 1 {
		t.Fatalf("tombstone names key %d, want the FIFO victim 1", tombKey)
	}
}

func TestConfigValidateEdges(t *testing.T) {
	bad := []Config{
		{NBits: -1},
		{NBits: MaxNBits + 1},
		{NBits: 31}, // would overflow the bucket-count shift if clamping ever regressed
		{NBits: 40},
		{M: -1},
		{Mode: ModeFixed + 1},
		{THTBudgetBytes: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); !errors.Is(err, ErrConfig) {
			t.Errorf("bad config %d (%+v): err=%v, want ErrConfig", i, c, err)
		}
	}
	good := []Config{
		{},
		{NBits: MaxNBits},
		{Mode: ModeFixed, FixedLevel: 7},
		{THTBudgetBytes: 1 << 20},
	}
	for i, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("good config %d (%+v): unexpected %v", i, c, err)
		}
	}
}

func TestNewTHTClampsNBits(t *testing.T) {
	if tht := NewTHT(40, 4); tht.mask != 1<<MaxNBits-1 {
		t.Fatalf("nbits above MaxNBits must clamp: mask=%#x", tht.mask)
	}
	if tht := NewTHT(-3, 4); tht.mask != 0 {
		t.Fatalf("negative nbits must clamp to one bucket: mask=%#x", tht.mask)
	}
	tht := NewTHT(0, 0) // m clamps to 1
	tht.Insert(entryWith(0, 1, 15, 1))
	tht.Insert(entryWith(0, 2, 15, 2))
	if tht.Entries() != 1 {
		t.Fatalf("entries=%d want 1 (m clamped)", tht.Entries())
	}
}

func TestLogDrainRaceLeaksNoReferences(t *testing.T) {
	// SetLogging(false) and DrainLog race a stream of concurrent
	// Inserts (run under -race): whichever side wins each record, every
	// logged insert reference is released exactly once. After quiescing
	// and a final drain, the only reference left on any live entry is
	// the table's own.
	tht := NewTHT(4, 8)
	tht.SetLogging(true)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tht.Insert(entryWith(0, uint64(g*1_000_000+i), 15, float64(i)))
			}
		}(g)
	}
	for r := 0; r < 300; r++ {
		if r%3 == 2 {
			tht.SetLogging(false) // releases whatever it drains
			tht.SetLogging(true)
		} else {
			for _, rec := range tht.DrainLog() {
				rec.e.Release() // nil-safe: tombstones hold no reference
			}
		}
	}
	close(stop)
	wg.Wait()
	tht.SetLogging(false) // final drain catches records logged after the last toggle

	for bi := range tht.buckets {
		b := &tht.buckets[bi]
		for i := 0; i < b.n; i++ {
			e := b.ring[(b.head+i)%len(b.ring)].e
			if refs := e.refs.Load(); refs != 1 {
				t.Fatalf("bucket %d entry %d (key %#x): refs=%d want 1 — a drained log reference leaked",
					bi, i, e.Key, refs)
			}
		}
	}
}
