package harness

import (
	"bytes"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atm/internal/core"
	"atm/internal/persist"
	"atm/internal/region"
	"atm/internal/service"
	"atm/internal/taskrt"
)

// doubler is the churn rig's memoizable body: out[i] = 2*in[i].
func doubler(t *taskrt.Task) {
	in, out := t.Float64s(0), t.Float64s(1)
	for i := range in {
		out[i] = 2 * in[i]
	}
}

// churnBudget holds 48 of the rig's entries (16 float64s plus 24 bytes
// of key, provider and header each): a round of fresh keys evicts.
const churnBudget = 48 * (16*8 + 24)

// churnRig drives one engine through budgeted inserts and evictions on
// a single worker, so two rigs fed the same rounds build the same table.
type churnRig struct {
	rt *taskrt.Runtime
	tt *taskrt.TaskType
}

func newChurnRig(memo *core.ATM) *churnRig {
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo})
	return &churnRig{rt: rt, tt: rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: doubler})}
}

// round runs n tasks: fresh keys from `from`, every third one a repeat
// of an older key, so hits, inserts and budget evictions interleave.
func (r *churnRig) round(from, n int) {
	for i := 0; i < n; i++ {
		v := from + i
		if i%3 == 2 {
			v = from/2 + i
		}
		in := region.NewFloat64(16)
		for j := range in.Data {
			in.Data[j] = float64(v*100+j) * 1.5
		}
		r.rt.Submit(r.tt, taskrt.In(in), taskrt.Out(region.NewFloat64(16)))
	}
	r.rt.Wait()
}

// churnRounds is the rig's schedule: rounds of growing churn, so the
// harness's saves both append and rewrite.
var churnRounds = []int{8, 4, 4, 6, 30, 2, 2, 3, 40, 5, 60, 1}

// entryIdent is one THT entry's identity in a snapshot.
type entryIdent struct {
	typ      string
	key      uint64
	level    int8
	provider uint64
}

// sameTable reports whether two full snapshots hold the same entries —
// identity and output contents — whatever their order.
func sameTable(t *testing.T, got, want *core.Snapshot) bool {
	t.Helper()
	outs := map[entryIdent][]region.Region{}
	n := 0
	for _, sec := range want.Types {
		for _, e := range sec.Entries {
			id := entryIdent{sec.Name, e.Key, e.Level, e.Provider}
			outs[id] = append(outs[id], e.Outs[0])
			n++
		}
	}
	for _, sec := range got.Types {
		for _, e := range sec.Entries {
			id := entryIdent{sec.Name, e.Key, e.Level, e.Provider}
			q := outs[id]
			if len(q) == 0 || !q[0].EqualContents(e.Outs[0]) {
				t.Errorf("entry %+v is not in the table (or its outputs differ)", id)
				return false
			}
			outs[id] = q[1:]
			n--
		}
	}
	if n != 0 {
		t.Errorf("%d entries of the table are missing", n)
		return false
	}
	return true
}

// chainTable folds the chain at path into one snapshot.
func chainTable(t *testing.T, path string) *core.Snapshot {
	t.Helper()
	base, deltas, err := persist.LoadChain(path)
	if err != nil {
		t.Fatal(err)
	}
	if base == nil {
		t.Fatalf("%s: chain has no base record", filepath.Base(path))
	}
	full, err := persist.Compact(base, deltas...)
	if err != nil {
		t.Fatal(err)
	}
	return full
}

// TestSaveBoundsChainAndKeepsTable drives the harness's save through
// appends and rewrites: after every save the file stays under twice its
// base record, and the chain folds to exactly the live table.
func TestSaveBoundsChainAndKeepsTable(t *testing.T) {
	chain := filepath.Join(t.TempDir(), "bounded.atmchain")
	st := openMemo(Static(true), RunOptions{SnapshotChain: chain, Sync: persist.SyncOff, THTBudgetBytes: churnBudget})
	if st.err != nil {
		t.Fatal(st.err)
	}
	rig := newChurnRig(st.memo)
	defer rig.rt.Close()
	appends, rewrites, from := 0, 0, 0
	for i, n := range churnRounds {
		rig.round(from, n)
		from += n
		if err := st.save(); err != nil {
			t.Fatal(err)
		}
		base, tail, err := persist.ChainSizes(chain)
		if err != nil {
			t.Fatal(err)
		}
		if base != st.base || tail != st.tail {
			t.Fatalf("save %d: file holds %d+%d bytes, the state says %d+%d", i, base, tail, st.base, st.tail)
		}
		if tail >= base {
			t.Fatalf("save %d: %d bytes appended after a %d-byte base", i, tail, base)
		}
		if tail == 0 {
			rewrites++
		} else {
			appends++
		}
		// Right after a save nothing is unsaved, so a full snapshot
		// supersedes nothing the next save needs.
		live, err := st.memo.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !sameTable(t, chainTable(t, chain), live) {
			t.Fatalf("save %d: the chain does not fold to the live table", i)
		}
	}
	if rewrites < 2 || appends == 0 || st.deltaSaves != len(churnRounds) {
		t.Fatalf("%d saves: %d rewrites, %d appends, %d counted", len(churnRounds), rewrites, appends, st.deltaSaves)
	}
}

// TestRewrittenChainRestoresLikeAppendedChain is the bit-identical
// restore check: one engine saved by the harness, which rewrites, and
// its twin fed the same rounds and saved by plain AppendDeltas restore
// to tables whose full snapshots encode byte-identically.
func TestRewrittenChainRestoresLikeAppendedChain(t *testing.T) {
	dir := t.TempDir()
	spec := Static(true)
	opt := RunOptions{SnapshotChain: filepath.Join(dir, "rewritten.atmchain"), Sync: persist.SyncOff, THTBudgetBytes: churnBudget}
	st := openMemo(spec, opt)
	if st.err != nil {
		t.Fatal(st.err)
	}
	cfg := core.Config{Mode: core.ModeStatic, THTBudgetBytes: churnBudget}
	twin := core.New(cfg)
	twin.EnableDeltaTracking()
	appended := filepath.Join(dir, "appended.atmchain")
	empty, err := twin.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := persist.SaveChainSync(appended, empty, nil, persist.SyncOff); err != nil {
		t.Fatal(err)
	}
	a, b := newChurnRig(st.memo), newChurnRig(twin)
	from := 0
	for _, n := range churnRounds {
		a.round(from, n)
		b.round(from, n)
		from += n
		if err := st.save(); err != nil {
			t.Fatal(err)
		}
		d, err := twin.SnapshotDelta()
		if err != nil {
			t.Fatal(err)
		}
		if err := persist.AppendDeltaSync(appended, d, persist.SyncOff); err != nil {
			t.Fatal(err)
		}
	}
	a.rt.Close()
	b.rt.Close()
	if _, deltas, _ := persist.LoadChain(opt.SnapshotChain); len(deltas) >= len(churnRounds)-1 {
		t.Fatalf("the harness chain holds %d deltas after %d saves: it never rewrote", len(deltas), len(churnRounds))
	}
	restored := func(path string) []byte {
		t.Helper()
		memo, warm, err := restoreChain(cfg, path)
		if err != nil || !warm {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		newChurnRig(memo).rt.Close() // its registration installs the restored section
		snap, err := memo.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		data, err := persist.MarshalChain(snap, nil)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	rewritten, replayed := restored(opt.SnapshotChain), restored(appended)
	if !bytes.Equal(rewritten, replayed) {
		t.Fatalf("restored tables differ: %d vs %d encoded bytes", len(rewritten), len(replayed))
	}
	live, err := st.memo.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !sameTable(t, chainTable(t, opt.SnapshotChain), live) {
		t.Fatal("the rewritten chain does not fold to the live table")
	}
}

// TestServeRacesRewrite races handler misses — inserting and evicting
// under a small budget — against periodic saves that cross the rewrite
// threshold. The chain restored after Close must equal the table at
// Close: no insert or eviction lost, none saved twice.
func TestServeRacesRewrite(t *testing.T) {
	chain := filepath.Join(t.TempDir(), "race.atmchain")
	opt := RunOptions{SnapshotChain: chain, Sync: persist.SyncOff, SnapshotDeltaEvery: time.Millisecond,
		THTBudgetBytes: 4 << 10}
	st := openMemo(Static(true), opt)
	if st.err != nil {
		t.Fatal(st.err)
	}
	eng := service.New(service.Config{Memo: st.memo, Save: st.save, SaveEvery: opt.SnapshotDeltaEvery})
	k, _ := service.KindByName("swaptions")
	var wg sync.WaitGroup
	var next atomic.Uint64
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Fresh keys, with an older one mixed in: misses insert and
				// evict on the handler, repeats hit.
				i := next.Add(1)
				tasks := []service.Task{
					{Kind: k.Name, Input: service.Input(k, i, 1)},
					{Kind: k.Name, Input: service.Input(k, i/2, 1)},
				}
				if _, _, err := eng.Do(tasks); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	c := eng.Counters()
	if c.Requests == 0 {
		t.Fatalf("no request was served: %+v", c)
	}
	_, deltas, err := persist.LoadChain(chain)
	if err != nil {
		t.Fatal(err)
	}
	// The first save outgrows the cold start's empty base; a later
	// rewrite leaves fewer deltas than the saves after the first.
	if c.Saves < 3 || len(deltas) >= int(c.Saves)-1 {
		t.Fatalf("%d saves left %d deltas: no save after the first rewrote the chain", c.Saves, len(deltas))
	}
	// The runtime is closed and the final save has run: a full snapshot
	// now reads the table at Close and supersedes nothing unsaved.
	live, err := st.memo.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if st.memo.Stats().THTBudgetEvictions == 0 {
		t.Fatal("the budget never evicted: the race exercised no tombstones")
	}
	if !sameTable(t, chainTable(t, chain), live) {
		t.Fatal("the chain restored after Close differs from the table at Close")
	}
}

// TestServeRacesLentRewrite rewrites the chain from a lent snapshot —
// the table's own entries, not a copy — while handlers insert and evict
// under a budget small enough that the table turns over many times
// during the write. No lent entry may be recycled while the writer
// holds it: each keeps the outputs it had when the snapshot was taken,
// and the rewritten chain restores exactly the table the snapshot
// scanned.
func TestServeRacesLentRewrite(t *testing.T) {
	chain := filepath.Join(t.TempDir(), "lent.atmchain")
	st := openMemo(Static(true), RunOptions{SnapshotChain: chain, Sync: persist.SyncOff, THTBudgetBytes: 4 << 10})
	if st.err != nil {
		t.Fatal(st.err)
	}
	eng := service.New(service.Config{Memo: st.memo})
	defer eng.Close()
	k, _ := service.KindByName("swaptions")
	var wg sync.WaitGroup
	var next atomic.Uint64
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := next.Add(1)
				tasks := []service.Task{
					{Kind: k.Name, Input: service.Input(k, i, 1)},
					{Kind: k.Name, Input: service.Input(k, i/2, 1)},
				}
				if _, _, err := eng.Do(tasks); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for round := 0; round < 5; round++ {
		for next.Load() < uint64(200*(round+1)) {
			time.Sleep(time.Millisecond) // let the table fill and churn
		}
		var scanned *core.Snapshot
		err := st.memo.LendSnapshot(func(snap *core.Snapshot) error {
			scanned = cloneSnapshot(snap)
			// Hold the lent entries while the handlers turn the table
			// over: an entry recycled now would be rewritten in place.
			for seen := next.Load(); next.Load() < seen+300; {
				time.Sleep(time.Millisecond)
			}
			if err := st.writeBase(snap); err != nil {
				return err
			}
			if !sameTable(t, snap, scanned) {
				t.Error("a lent entry changed while the writer held it")
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, sec := range scanned.Types {
			n += len(sec.Entries)
		}
		if n == 0 {
			t.Fatal("the lent snapshot held no entries")
		}
		if !sameTable(t, chainTable(t, chain), scanned) {
			t.Fatalf("round %d: the rewritten chain differs from the table the snapshot scanned", round)
		}
	}
	if st.memo.Stats().THTBudgetEvictions == 0 {
		t.Fatal("the budget never evicted: no lent entry could have been recycled")
	}
}

// cloneSnapshot deep-copies a snapshot's entries.
func cloneSnapshot(s *core.Snapshot) *core.Snapshot {
	cp := *s
	cp.Types = make([]core.TypeSnapshot, len(s.Types))
	for i, sec := range s.Types {
		cp.Types[i] = sec
		cp.Types[i].Entries = make([]core.EntrySnapshot, len(sec.Entries))
		for j, e := range sec.Entries {
			e.Outs = []region.Region{e.Outs[0].Clone()}
			cp.Types[i].Entries[j] = e
		}
	}
	return &cp
}

// TestRewriteCopiesNoTable fills a table with more than 4 MiB of
// payload in the service catalog's mix of output sizes and rewrites the
// chain from it: the rewrite streams the table's own entries into the
// file, so it allocates less than a quarter of the payload — a few
// dozen bytes of bookkeeping per entry and one chunk of the file, where
// a copy of the table or of the file would each cost the payload.
func TestRewriteCopiesNoTable(t *testing.T) {
	chain := filepath.Join(t.TempDir(), "big.atmchain")
	st := openMemo(Static(true), RunOptions{SnapshotChain: chain, Sync: persist.SyncOff})
	if st.err != nil {
		t.Fatal(st.err)
	}
	eng := service.New(service.Config{Memo: st.memo})
	defer eng.Close()
	// DefaultMix's weights over 20 slots: 6 blackscholes, 4 stencil,
	// 4 kmeans, 3 swaptions, 3 lu.
	var slots []service.Kind
	for name, n := range map[string]int{"blackscholes": 6, "stencil": 4, "kmeans": 4, "swaptions": 3, "lu": 3} {
		k, _ := service.KindByName(name)
		for ; n > 0; n-- {
			slots = append(slots, k)
		}
	}
	const payload = 4 << 20
	for i := uint64(0); st.memo.THT().MemoryBytes() < payload; i++ {
		k := slots[i%uint64(len(slots))]
		if _, _, err := eng.Do([]service.Task{{Kind: k.Name, Input: service.Input(k, i, 3)}}); err != nil {
			t.Fatal(err)
		}
	}
	held := st.memo.THT().MemoryBytes()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := st.rewrite(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("rewrite of %d entries, %d bytes: %d bytes allocated", st.memo.THT().Entries(), held, alloc)
	if alloc >= uint64(held)/4 {
		t.Fatalf("a rewrite of a %d-byte table allocated %d bytes, want under a quarter of it", held, alloc)
	}
	if st.tail != 0 || st.base == 0 {
		t.Fatalf("chain layout after the rewrite: base %d, tail %d", st.base, st.tail)
	}
}
