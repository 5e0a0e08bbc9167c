package service

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atm/internal/core"
	"atm/internal/persist"
)

// These tests pin the inline hit path (Engine.serveInline over
// core.ServeHits): that it is invisible except in speed and in the two
// inline counters, that every reason to decline hands the request to the
// loop whole, and that it holds up against the loop's inserts, evictions
// and saves.

var memoKindNames = []string{"blackscholes", "kmeans", "lu", "stencil", "swaptions"}

// inlineStream is one seeded request stream for the differential test:
// hot keys, a skewed tail, scans of never-repeating keys, a request
// carrying a spin task, two tenants.
type inlineStreamReq struct {
	tenant string
	tasks  []Task
}

func inlineStream(t *testing.T, seed int64, n int) []inlineStreamReq {
	rng := rand.New(rand.NewSource(seed))
	kinds := make([]Kind, len(memoKindNames))
	for i, name := range memoKindNames {
		kinds[i] = mustKind(t, name)
	}
	spin := mustKind(t, "spin")
	scanKey := uint64(1 << 32)
	reqs := make([]inlineStreamReq, n)
	for i := range reqs {
		r := &reqs[i]
		if rng.Intn(5) == 0 {
			r.tenant = "acme"
		}
		shape := rng.Intn(100)
		for j := 0; j < 1+rng.Intn(4); j++ {
			k := kinds[rng.Intn(len(kinds))]
			var key uint64
			switch {
			case shape < 60: // hot
				key = uint64(rng.Intn(6))
			case shape < 85: // skewed tail over 300 keys
				u := rng.Float64()
				key = 100 + uint64(300*u*u*u)
			default: // scan
				scanKey++
				key = scanKey
			}
			r.tasks = append(r.tasks, Task{Kind: k.Name, Input: Input(k, key, 7)})
		}
		if shape >= 96 {
			r.tasks = append(r.tasks, Task{Kind: "spin", Input: Input(spin, uint64(i), 7)})
		}
	}
	return reqs
}

// TestInlineMatchesLoop sends one stream, one client, through an engine
// with the inline path on and one with it off: every reply is the same
// bytes, and afterwards core.Stats and the table's contents are equal —
// budgeted and not, Static and Dynamic.
func TestInlineMatchesLoop(t *testing.T) {
	type variant struct {
		mode   core.Mode
		budget int64
	}
	var variants []variant
	for _, mode := range []core.Mode{core.ModeStatic, core.ModeDynamic} {
		variants = append(variants, variant{mode, 0}, variant{mode, 96 << 10})
	}
	reqs := inlineStream(t, 22, 500)
	bodies := make([][]byte, len(reqs))
	for i, r := range reqs {
		var err error
		if bodies[i], err = EncodeBinaryTasks(r.tasks); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range variants {
		t.Run(fmt.Sprintf("%v/%d", v.mode, v.budget), func(t *testing.T) {
			type side struct {
				eng *Engine
				srv *Server
			}
			var sides [2]side // inline on, inline off
			for i := range sides {
				memo := core.New(core.Config{Mode: v.mode, THTBudgetBytes: v.budget})
				eng := newTestEngine(t, Config{Workers: 1, Memo: memo})
				eng.noInline = i == 1
				sides[i] = side{eng, NewServer(eng)}
			}
			for i, body := range bodies {
				var replies [2][]byte
				for s := range sides {
					req := httptest.NewRequest(http.MethodPost, "/v1/submit", bytes.NewReader(body))
					req.Header.Set("Content-Type", binaryContentType)
					if reqs[i].tenant != "" {
						req.Header.Set("X-ATM-Tenant", reqs[i].tenant)
					}
					rec := httptest.NewRecorder()
					sides[s].srv.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						t.Fatalf("request %d, side %d: HTTP %d: %s", i, s, rec.Code, rec.Body)
					}
					replies[s] = rec.Body.Bytes()
				}
				if !bytes.Equal(replies[0], replies[1]) {
					t.Fatalf("request %d: replies differ\ninline %s\nloop   %s", i, replies[0], replies[1])
				}
			}

			on, off := sides[0].eng.Counters(), sides[1].eng.Counters()
			if off.InlineRequests != 0 {
				t.Fatalf("the loop-only engine served %d requests inline", off.InlineRequests)
			}
			if on.InlineRequests < int64(len(reqs))/10 {
				t.Errorf("only %d of %d requests were served inline: the test compares little", on.InlineRequests, len(reqs))
			}
			on.InlineRequests, on.InlineTasks = 0, 0
			on.BacklogLimit, off.BacklogLimit = 0, 0 // adaptive: follows what the runtime saw
			if on != off {
				t.Errorf("engine counters differ\ninline %+v\nloop   %+v", on, off)
			}

			var stats [2]core.Stats
			var tables [2][]core.TypeSnapshot
			for s := range sides {
				stats[s] = sides[s].eng.Stats()
				for i := range stats[s].Types { // estimates from a clock, not counts
					stats[s].Types[i].HashTime, stats[s].Types[i].CopyTime = 0, 0
				}
				path := filepath.Join(t.TempDir(), "table.atmsnap")
				if err := sides[s].eng.Snapshot(path); err != nil {
					t.Fatal(err)
				}
				snap, err := persist.Load(path)
				if err != nil {
					t.Fatal(err)
				}
				tables[s] = snap.Types
				for i := range tables[s] {
					for j := range tables[s][i].Entries {
						// A task id: the loop-only engine carved more tasks.
						tables[s][i].Entries[j].Provider = 0
					}
				}
			}
			a, b := stats[0], stats[1]
			if len(a.Types) != len(b.Types) {
				t.Fatalf("type counts differ: %d vs %d", len(a.Types), len(b.Types))
			}
			for i := range a.Types {
				if a.Types[i] != b.Types[i] {
					t.Errorf("type %s differs\ninline %+v\nloop   %+v", a.Types[i].Name, a.Types[i], b.Types[i])
				}
			}
			if a.THTLookups != b.THTLookups || a.THTHits != b.THTHits || a.THTEvictions != b.THTEvictions ||
				a.THTBudgetEvictions != b.THTBudgetEvictions || a.THTAdmissionRejects != b.THTAdmissionRejects {
				t.Errorf("table counters differ\ninline %+v\nloop   %+v", a, b)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("core.Stats differ\ninline %+v\nloop   %+v", a, b)
			}
			if v.budget > 0 && a.THTBudgetEvictions == 0 {
				t.Error("the budget never evicted: the test compares no eviction order")
			}
			if !reflect.DeepEqual(tables[0], tables[1]) {
				t.Error("table contents differ")
			}
		})
	}
}

// hotTasks is a request of one task per memoizable kind at key, and
// the outputs Kind.Fn computes for it.
func hotTasks(t testing.TB, key uint64) ([]Task, [][]float64) {
	var tasks []Task
	var want [][]float64
	for _, name := range memoKindNames {
		k := mustKind(t, name)
		in := Input(k, key, 3)
		out := make([]float64, k.Out)
		k.Fn(in, out)
		tasks = append(tasks, Task{Kind: name, Input: in})
		want = append(want, out)
	}
	return tasks, want
}

func checkOutputs(t testing.TB, got, want [][]float64) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("outputs differ from Kind.Fn's\ngot  %v\nwant %v", got, want)
	}
}

// TestInlineFallbacks: one case per reason a request goes to the loop
// instead, each checked by the batch it reports and by the inline
// counters standing still.
func TestInlineFallbacks(t *testing.T) {
	viaLoop := func(t *testing.T, e *Engine, tasks []Task, want GroupStats) [][]float64 {
		t.Helper()
		before := e.Counters()
		outs, g, err := e.Do(tasks)
		if err != nil {
			t.Fatal(err)
		}
		if g != want {
			t.Errorf("batch = %+v, want %+v", g, want)
		}
		after := e.Counters()
		if after.InlineRequests != before.InlineRequests || after.InlineTasks != before.InlineTasks {
			t.Errorf("served inline: counters %+v -> %+v", before, after)
		}
		if after.Requests != before.Requests+1 || after.Batches != before.Batches+1 {
			t.Errorf("not counted once: counters %+v -> %+v", before, after)
		}
		return outs
	}
	hot, want := hotTasks(t, 1)

	t.Run("served", func(t *testing.T) { // the control: nothing below declines by accident
		e := newTestEngine(t, Config{Workers: 1, Memo: core.New(core.Config{Mode: core.ModeStatic})})
		viaLoop(t, e, hot, GroupStats{Tasks: 5, Executed: 5})
		outs, g, err := e.Do(hot)
		if err != nil {
			t.Fatal(err)
		}
		checkOutputs(t, outs, want)
		if g != (GroupStats{Tasks: 5, MemoTHT: 5}) {
			t.Errorf("batch = %+v, want five THT hits", g)
		}
		if c := e.Counters(); c.InlineRequests != 1 || c.InlineTasks != 5 || c.Requests != 2 || c.Tasks != 10 || c.Batches != 2 {
			t.Errorf("counters after one loop and one inline request: %+v", c)
		}
	})
	t.Run("first miss", func(t *testing.T) {
		e := newTestEngine(t, Config{Workers: 1, Memo: core.New(core.Config{Mode: core.ModeStatic})})
		viaLoop(t, e, hot, GroupStats{Tasks: 5, Executed: 5})
		cold, coldWant := hotTasks(t, 2)
		mixed := append(append([]Task(nil), hot[:3]...), cold[3])
		outs := viaLoop(t, e, mixed, GroupStats{Tasks: 4, Executed: 1, MemoTHT: 3})
		checkOutputs(t, outs, append(append([][]float64(nil), want[:3]...), coldWant[3]))
	})
	t.Run("training", func(t *testing.T) {
		e := newTestEngine(t, Config{Workers: 1, Memo: core.New(core.Config{Mode: core.ModeDynamic})})
		for rep := 0; rep < 3; rep++ { // far from LTraining: every task still runs
			viaLoop(t, e, hot, GroupStats{Tasks: 5, Executed: 5})
		}
	})
	t.Run("not memoizable", func(t *testing.T) {
		e := newTestEngine(t, Config{Workers: 1, Memo: core.New(core.Config{Mode: core.ModeStatic})})
		viaLoop(t, e, hot, GroupStats{Tasks: 5, Executed: 5})
		spin := mustKind(t, "spin")
		mixed := append(append([]Task(nil), hot...), Task{Kind: "spin", Input: Input(spin, 1, 1)})
		// The batch counts what ATM saw: the spin task is not among it.
		outs := viaLoop(t, e, mixed, GroupStats{Tasks: 5, MemoTHT: 5})
		checkOutputs(t, outs[:5], want)
	})
	t.Run("VerifyInputs", func(t *testing.T) {
		e := newTestEngine(t, Config{Workers: 1, Memo: core.New(core.Config{Mode: core.ModeStatic, VerifyInputs: true})})
		viaLoop(t, e, hot, GroupStats{Tasks: 5, Executed: 5})
		outs := viaLoop(t, e, hot, GroupStats{Tasks: 5, MemoTHT: 5})
		checkOutputs(t, outs, want)
	})
	t.Run("no memoizer", func(t *testing.T) {
		e := newTestEngine(t, Config{Workers: 1})
		viaLoop(t, e, hot, GroupStats{})
	})
}

// TestAbandonedInlineLeavesOutputsZeroed: the inline attempt carves its
// outputs from the pooled slab without zeroing it, so after it gives up
// the loop must still hand a kernel zeroed outputs — a kernel is not
// obliged to write every element.
func TestAbandonedInlineLeavesOutputsZeroed(t *testing.T) {
	var dirty atomic.Int64
	kinds := []Kind{
		{Name: "fill", In: 1, Out: 32, Memoize: true, Fn: func(in, out []float64) {
			for i := range out {
				out[i] = in[0] + 1
			}
		}},
		{Name: "first", In: 1, Out: 32, Memoize: true, Fn: func(in, out []float64) {
			for _, v := range out {
				if v != 0 {
					dirty.Add(1)
				}
			}
			out[0] = in[0] + 1 // and no other element
		}},
	}
	e := newTestEngine(t, Config{Workers: 1, Memo: core.New(core.Config{Mode: core.ModeStatic}), KindList: kinds})
	srv := NewServer(e)
	post := func(tasks ...Task) {
		t.Helper()
		body, err := EncodeBinaryTasks(tasks)
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/submit", bytes.NewReader(body))
		req.Header.Set("Content-Type", binaryContentType)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req) // the route that keeps its output slab in the pool
		if rec.Code != http.StatusOK {
			t.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
		}
	}
	fill := Task{Kind: "fill", Input: []float64{1}}
	post(fill, fill)
	for rep := 1; rep <= 20; rep++ {
		post(fill, fill) // served inline: the pooled slab now holds 2s throughout
		// A hit, then a miss: abandoned after the first probe, run by the loop.
		post(fill, Task{Kind: "first", Input: []float64{float64(rep)}})
	}
	if c := e.Counters(); c.InlineRequests != 20 {
		t.Fatalf("%d requests served inline, want the 20 all-hit ones", c.InlineRequests)
	}
	if n := dirty.Load(); n != 0 {
		t.Errorf("a kernel saw %d stale output elements after an abandoned inline attempt", n)
	}
}

// TestInlineServedPastWatermark: hits are not queued, so a backlog past
// the admission watermark does not shed them; a request that needs the
// loop is shed as before.
func TestInlineServedPastWatermark(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, Backlog: 64, Memo: core.New(core.Config{Mode: core.ModeStatic})})
	hot, want := hotTasks(t, 1)
	if _, _, err := e.Do(hot); err != nil {
		t.Fatal(err)
	}
	e.queued.Add(1 << 20) // the loop sits far past any watermark
	defer e.queued.Add(-(1 << 20))
	outs, g, err := e.Do(hot)
	if err != nil {
		t.Fatalf("an all-hit request was refused past the watermark: %v", err)
	}
	checkOutputs(t, outs, want)
	if g != (GroupStats{Tasks: 5, MemoTHT: 5}) {
		t.Errorf("batch = %+v, want five THT hits", g)
	}
	cold, _ := hotTasks(t, 2)
	var over *OverloadError
	if _, _, err := e.Do(cold); !errors.As(err, &over) {
		t.Fatalf("a request of misses past the watermark: err = %v, want *OverloadError", err)
	}
	if c := e.Counters(); c.ShedRequests != 1 || c.InlineRequests != 1 || c.Requests != 2 {
		t.Errorf("counters: %+v", c)
	}
}

// TestLoopBatchStatsAreItsOwn: the loop attributes a batch by diffing
// ATM's counters around its fence, and hits committed meanwhile on other
// goroutines must not land in that difference. A miss-only request, the
// only one to reach the loop, reports exactly its own tasks while eight
// goroutines serve hot keys inline.
func TestLoopBatchStatsAreItsOwn(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, Memo: core.New(core.Config{Mode: core.ModeStatic})})
	hot, _ := hotTasks(t, 1)
	if _, _, err := e.Do(hot); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, g, err := e.Do(hot); err != nil || g != (GroupStats{Tasks: 5, MemoTHT: 5}) {
					t.Errorf("hot request: batch %+v, err %v", g, err)
					return
				}
			}
		}()
	}
	lu := mustKind(t, "lu")
	for i := 0; i < 300; i++ {
		cold := make([]Task, 3)
		for j := range cold {
			cold[j] = Task{Kind: "lu", Input: Input(lu, uint64(1000+3*i+j), 9)}
		}
		_, g, err := e.Do(cold)
		if err != nil || g != (GroupStats{Tasks: 3, Executed: 3}) {
			t.Errorf("miss-only request %d: batch = %+v, err %v, want its own three executed tasks", i, g, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if c := e.Counters(); c.InlineRequests == 0 {
		t.Error("no hot request was served inline: nothing raced the loop's batches")
	}
}

// TestInlineRacesLoop: inline hits on eight goroutines against loop
// batches that insert and evict under a 64 KiB budget, with a delta save
// every 10 ms. Every reply equals Kind.Fn's outputs, and afterwards the
// stats partition. Run with -race; core's TestServeHitsRacesInsertEvict
// checks the entry reference counts underneath.
func TestInlineRacesLoop(t *testing.T) {
	memo := core.New(core.Config{Mode: core.ModeStatic, THTBudgetBytes: 64 << 10})
	memo.EnableDeltaTracking()
	var saves atomic.Int64
	e := newTestEngine(t, Config{
		Workers: 2, Memo: memo, SaveEvery: 10 * time.Millisecond,
		Save: func() error {
			saves.Add(1)
			return memo.LendDelta(func(*core.Delta) error { return nil })
		},
	})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var requests atomic.Int64
	client := func(next func(i int) ([]Task, [][]float64)) {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tasks, want := next(i)
			outs, g, err := e.Do(tasks)
			if err != nil {
				t.Errorf("Do: %v", err)
				return
			}
			requests.Add(1)
			if !reflect.DeepEqual(outs, want) {
				t.Errorf("reply differs from Kind.Fn's outputs (batch %+v)", g)
				return
			}
		}
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		hot, want := hotTasks(t, uint64(g%3)) // evicted now and then, re-inserted by the next fallback
		go client(func(int) ([]Task, [][]float64) { return hot, want })
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		g := g
		go client(func(i int) ([]Task, [][]float64) { return hotTasks(t, uint64(1000+2*i+g)) })
	}
	deadline := time.After(30 * time.Second)
wait:
	for saves.Load() < 20 || e.Counters().InlineRequests < 200 {
		select {
		case <-deadline:
			t.Errorf("after 30 s: %d saves, counters %+v", saves.Load(), e.Counters())
			break wait
		case <-time.After(5 * time.Millisecond):
		}
	}
	close(stop)
	wg.Wait()

	c, st := e.Counters(), e.Stats()
	if c.Requests != requests.Load() || c.Tasks != 5*requests.Load() {
		t.Errorf("%d requests answered, counters say %+v", requests.Load(), c)
	}
	if st.THTBudgetEvictions == 0 {
		t.Error("the budget never evicted")
	}
	var tasks int64
	for _, ty := range st.Types {
		if ty.Executed+ty.MemoizedTHT+ty.MemoizedIKT != ty.Tasks {
			t.Errorf("%s: %d executed + %d THT + %d IKT != %d tasks", ty.Name, ty.Executed, ty.MemoizedTHT, ty.MemoizedIKT, ty.Tasks)
		}
		tasks += ty.Tasks
	}
	if tasks != c.Tasks {
		t.Errorf("ATM saw %d tasks, the engine served %d", tasks, c.Tasks)
	}
}

// TestLookupIsQuietAndAllocationFree extends core's
// TestPeekHashKeyAllocationFree to the engine route: a lookup into the
// caller's buffer allocates nothing, and moves only the engine's own
// lookup counters.
func TestLookupIsQuietAndAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	memo := core.New(core.Config{Mode: core.ModeStatic, THTBudgetBytes: 1 << 20})
	e := newTestEngine(t, Config{Workers: 1, Memo: memo})
	lu := mustKind(t, "lu")
	in, miss := Input(lu, 1, 1), Input(lu, 2, 1)
	want, _, err := e.Do([]Task{{Kind: "lu", Input: in}})
	if err != nil {
		t.Fatal(err)
	}
	before := e.Stats()
	dst := make([]float64, lu.Out)
	allocs := testing.AllocsPerRun(200, func() {
		out, hit, err := e.LookupTenant("", "lu", in, dst)
		if err != nil || !hit || &out[0] != &dst[0] {
			t.Fatalf("lookup of a stored entry: hit=%v err=%v in dst=%v", hit, err, len(out) > 0 && &out[0] == &dst[0])
		}
		if _, hit, _ := e.LookupTenant("", "lu", miss, dst); hit {
			t.Fatal("lookup hit an input never run")
		}
	})
	if allocs != 0 {
		t.Errorf("a lookup hit plus a miss allocate %v, want 0", allocs)
	}
	if !reflect.DeepEqual(dst, want[0]) {
		t.Error("lookup returned other outputs than the submit did")
	}
	if after := e.Stats(); !reflect.DeepEqual(after, before) {
		t.Errorf("lookups changed core.Stats\n%+v\n%+v", before, after)
	}
	if c := e.Counters(); c.Lookups != 402 || c.LookupHits != 201 {
		t.Errorf("lookup counters: %+v", c)
	}
}
