package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atm/internal/core"
)

// These tests pin the inline path (Engine.serveInline over core.Serve):
// that it is invisible except in speed, in the two inline counters and in
// the IKT's, that every reason to decline hands the request to the
// runtime whole, and that it holds up against the runtime's inserts,
// evictions and saves. ("Loop" in a test name means the runtime path.)

var memoKindNames = []string{"blackscholes", "kmeans", "lu", "stencil", "swaptions"}

// inlineStream is one seeded request stream for the differential test:
// hot keys, a skewed tail, scans of never-repeating keys, a request
// carrying a spin task, a request naming one fresh key twice, two
// tenants.
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
		if i%25 == 7 { // a miss, then its sibling's hit
			k := kinds[rng.Intn(len(kinds))]
			scanKey++
			twice := Task{Kind: k.Name, Input: Input(k, scanKey, 7)}
			r.tasks = append(append([]Task{twice}, r.tasks...), twice)
		}
	}
	return reqs
}

// TestInlineMatchesLoop sends one stream, one client, through an engine
// with the inline path on and one with it off: every reply is the same
// bytes, and afterwards core.Stats and the table's contents are equal —
// budgeted and not, Static and Dynamic — but for what differs by design:
// the IKT counters (misses run on a handler take no IKT slot), provider
// ids and clock estimates.
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
				// table is what the Save hook last read, under the
				// runtime lock.
				table *core.Snapshot
			}
			var sides [2]side // inline on, inline off
			for i := range sides {
				s := &sides[i]
				memo := core.New(core.Config{Mode: v.mode, THTBudgetBytes: v.budget})
				s.eng = newTestEngine(t, Config{Workers: 1, Memo: memo, Save: func() (err error) {
					s.table, err = memo.Snapshot()
					return err
				}})
				s.eng.noInline = i == 1
				s.srv = NewServer(s.eng)
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
			if iktOn, iktOff := sides[0].eng.Stats().IKTInserts, sides[1].eng.Stats().IKTInserts; iktOn >= iktOff {
				t.Errorf("the inline side registered %d IKT providers, the loop side %d: no miss ran on a handler", iktOn, iktOff)
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
				// Only the runtime's misses register in the IKT.
				stats[s].IKTInserts, stats[s].IKTDefers, stats[s].IKTRejected = 0, 0, 0
				if err := sides[s].eng.Snapshot(); err != nil {
					t.Fatal(err)
				}
				tables[s] = sides[s].table.Types
				for i := range tables[s] {
					for j := range tables[s][i].Entries {
						// A task id, or core's own for an entry a handler
						// inserted.
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

// TestInlineFallbacks: one case per reason a request goes to the runtime
// instead, each checked by the batch it reports and by the inline
// counters standing still — and, as controls that nothing declines by
// accident, requests of steady memoizable tasks served on the handler
// whether they hit or miss.
func TestInlineFallbacks(t *testing.T) {
	do := func(t *testing.T, e *Engine, tasks []Task, want GroupStats, inline bool) [][]float64 {
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
		if served := after.InlineRequests != before.InlineRequests; served != inline {
			t.Errorf("served inline %v, want %v: counters %+v -> %+v", served, inline, before, after)
		}
		if after.Requests != before.Requests+1 || after.Batches != before.Batches+1 {
			t.Errorf("not counted once: counters %+v -> %+v", before, after)
		}
		return outs
	}
	viaLoop := func(t *testing.T, e *Engine, tasks []Task, want GroupStats) [][]float64 {
		t.Helper()
		return do(t, e, tasks, want, false)
	}
	inline := func(t *testing.T, e *Engine, tasks []Task, want GroupStats) [][]float64 {
		t.Helper()
		return do(t, e, tasks, want, true)
	}
	hot, want := hotTasks(t, 1)

	t.Run("served", func(t *testing.T) { // the control: misses, then hits
		e := newTestEngine(t, Config{Workers: 1, Memo: core.New(core.Config{Mode: core.ModeStatic})})
		checkOutputs(t, inline(t, e, hot, GroupStats{Tasks: 5, Executed: 5}), want)
		checkOutputs(t, inline(t, e, hot, GroupStats{Tasks: 5, MemoTHT: 5}), want)
		if c := e.Counters(); c.InlineRequests != 2 || c.InlineTasks != 10 || c.Requests != 2 || c.Tasks != 10 || c.Batches != 2 {
			t.Errorf("counters after two inline requests: %+v", c)
		}
		if st := e.Stats(); st.IKTInserts != 0 {
			t.Errorf("handler misses took %d IKT slots, want 0", st.IKTInserts)
		}
	})
	t.Run("first miss", func(t *testing.T) { // a miss behind hits is served too
		e := newTestEngine(t, Config{Workers: 1, Memo: core.New(core.Config{Mode: core.ModeStatic})})
		inline(t, e, hot, GroupStats{Tasks: 5, Executed: 5})
		cold, coldWant := hotTasks(t, 2)
		mixed := append(append([]Task(nil), hot[:3]...), cold[3])
		outs := inline(t, e, mixed, GroupStats{Tasks: 4, Executed: 1, MemoTHT: 3})
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
		inline(t, e, hot, GroupStats{Tasks: 5, Executed: 5})
		spin := mustKind(t, "spin")
		mixed := append(append([]Task(nil), hot...), Task{Kind: "spin", Input: Input(spin, 1, 1)})
		// The batch counts what ATM saw: the spin task is not among it.
		outs := viaLoop(t, e, mixed, GroupStats{Tasks: 5, MemoTHT: 5})
		checkOutputs(t, outs[:5], want)
	})
	t.Run("no memoizer", func(t *testing.T) {
		e := newTestEngine(t, Config{Workers: 1})
		viaLoop(t, e, hot, GroupStats{})
	})
}

// TestAbandonedInlineLeavesOutputsZeroed: a request's output slab comes
// from the pool uncleared, and a kernel is not obliged to write every
// element — so a kernel that writes nothing must still return zeros, on
// the handler path (a miss run inline) and on the runtime (a request the
// inline path declined), after requests that filled the slab.
func TestAbandonedInlineLeavesOutputsZeroed(t *testing.T) {
	var dirty atomic.Int64
	none := func(in, out []float64) { // writes nothing, and counts what it was handed
		for _, v := range out {
			if v != 0 {
				dirty.Add(1)
			}
		}
	}
	kinds := []Kind{
		{Name: "fill", In: 1, Out: 32, Memoize: true, Fn: func(in, out []float64) {
			for i := range out {
				out[i] = in[0] + 1
			}
		}},
		{Name: "none", In: 1, Out: 32, Memoize: true, Fn: none},
		{Name: "plain", In: 1, Out: 32, Fn: none}, // not memoizable: declined
	}
	e := newTestEngine(t, Config{Workers: 1, Memo: core.New(core.Config{Mode: core.ModeStatic}), KindList: kinds})
	srv := NewServer(e)
	post := func(tasks ...Task) [][]float64 {
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
		var reply struct{ Results []struct{ Output []float64 } }
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			t.Fatal(err)
		}
		outs := make([][]float64, len(reply.Results))
		for i, r := range reply.Results {
			outs[i] = r.Output
		}
		return outs
	}
	fill := Task{Kind: "fill", Input: []float64{1}}
	post(fill, fill)
	for rep := 1; rep <= 20; rep++ {
		for _, kind := range []string{"none", "plain"} {
			post(fill, fill) // a hit: the pooled slab now holds 2s throughout
			outs := post(fill, Task{Kind: kind, Input: []float64{float64(rep)}})
			for j, v := range outs[1] {
				if v != 0 {
					t.Fatalf("%s, rep %d: output[%d] = %v, want 0", kind, rep, j, v)
				}
			}
		}
	}
	if c := e.Counters(); c.InlineRequests != 61 || c.Requests != 81 {
		t.Fatalf("%d of %d requests served inline, want the 61 without a plain task", c.InlineRequests, c.Requests)
	}
	if n := dirty.Load(); n != 0 {
		t.Errorf("a kernel saw %d stale output elements", n)
	}
}

// TestInlineServedPastWatermark: a request served on the handler is
// admitted for its misses alone. Past the watermark an all-hit request is
// still served — hits are not queued, so they are not shed — and a
// request with one miss is shed whole, leaving no trace in core: no
// counter, no sketch cell, no entry.
func TestInlineServedPastWatermark(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, Backlog: 64, Memo: core.New(core.Config{Mode: core.ModeStatic, THTBudgetBytes: 1 << 20})})
	hot, want := hotTasks(t, 1)
	if _, _, err := e.Do(hot); err != nil {
		t.Fatal(err)
	}
	e.queued.Add(1 << 20) // the engine sits far past any watermark
	defer e.queued.Add(-(1 << 20))
	outs, g, err := e.Do(hot)
	if err != nil {
		t.Fatalf("an all-hit request was refused past the watermark: %v", err)
	}
	checkOutputs(t, outs, want)
	if g != (GroupStats{Tasks: 5, MemoTHT: 5}) {
		t.Errorf("batch = %+v, want five THT hits", g)
	}
	before := e.Stats()
	cold, _ := hotTasks(t, 2)
	oneMiss := append(append([]Task(nil), hot[:4]...), cold[4])
	var over *OverloadError
	if _, _, err := e.Do(oneMiss); !errors.As(err, &over) {
		t.Fatalf("a request with a miss past the watermark: err = %v, want *OverloadError", err)
	}
	if after := e.Stats(); !reflect.DeepEqual(after, before) {
		t.Errorf("the shed request left a trace in core.Stats\n%+v\n%+v", before, after)
	}
	if c := e.Counters(); c.ShedRequests != 1 || c.ShedTasks != 5 || c.InlineRequests != 2 || c.Requests != 2 {
		t.Errorf("counters: %+v", c)
	}
}

// TestLoopBatchStatsAreItsOwn: every request run through the runtime
// reports exactly its own tasks, the workers' ATM counters diffed around
// its own fence, while three goroutines contend for the runtime lock and
// eight serve hot keys inline, whose hits must not land in any diff.
// Each runtime request is a hit, a never-seen lu task and a spin task,
// which keeps it off the inline path and which ATM does not see.
func TestLoopBatchStatsAreItsOwn(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2, Memo: core.New(core.Config{Mode: core.ModeStatic})})
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
	lu, spin := mustKind(t, "lu"), mustKind(t, "spin")
	const senders, each = 3, 15
	var sendWG sync.WaitGroup
	for g := 0; g < senders; g++ {
		sendWG.Add(1)
		go func() {
			defer sendWG.Done()
			for i := 0; i < each; i++ {
				tasks := []Task{
					hot[0],
					{Kind: "lu", Input: Input(lu, uint64(1000+senders*i+g), 9)},
					{Kind: "spin", Input: Input(spin, uint64(i), 9)},
				}
				_, gs, err := e.Do(tasks)
				if want := (GroupStats{Tasks: 2, Executed: 1, MemoTHT: 1}); err != nil || gs != want {
					t.Errorf("runtime request %d of sender %d: batch = %+v, err %v, want %+v", i, g, gs, err, want)
					return
				}
			}
		}()
	}
	sendWG.Wait()
	close(stop)
	wg.Wait()
	c := e.Counters()
	if loop := c.Requests - c.InlineRequests; loop != senders*each {
		t.Errorf("%d requests reached the runtime, want %d", loop, senders*each)
	}
	if c.InlineRequests <= 1 {
		t.Error("no hot request was served inline: nothing raced the runtime's fences")
	}
	if c.Batches != c.Requests {
		t.Errorf("batches %d != requests %d: every request is a group of its own", c.Batches, c.Requests)
	}
}

// TestInlineRacesLoop: hot requests on eight goroutines — hits, or misses
// run inline after an eviction — against runtime fences that insert and
// evict under a 64 KiB budget, with a delta save every 10 ms. The
// runtime's requests are two clients' never-repeating requests, each
// carrying a spin task so the inline path declines them. Every reply equals Kind.Fn's
// outputs, and afterwards the stats partition. Run with -race; core's
// TestServeHitsRacesInsertEvict checks the entry reference counts
// underneath.
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
	spin := mustKind(t, "spin")
	for g := 0; g < 2; g++ {
		wg.Add(1)
		g := g
		go client(func(i int) ([]Task, [][]float64) {
			tasks, want := hotTasks(t, uint64(1000+2*i+g))
			in, out := Input(spin, uint64(i), 1), make([]float64, spin.Out)
			spin.Fn(in, out)
			return append(tasks, Task{Kind: "spin", Input: in}), append(want, out)
		})
	}
	deadline := time.After(30 * time.Second)
wait:
	for c := e.Counters(); saves.Load() < 20 || c.InlineRequests < 200 || c.Requests-c.InlineRequests < 20; c = e.Counters() {
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
	loop := c.Requests - c.InlineRequests
	if c.Requests != requests.Load() || c.Tasks != 5*requests.Load()+loop {
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
	if tasks != c.Tasks-loop { // less the spin tasks, which ATM does not see
		t.Errorf("ATM saw %d tasks, the engine served %d memoizable ones", tasks, c.Tasks-loop)
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
