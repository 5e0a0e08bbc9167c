package service

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atm/internal/core"
	"atm/internal/region"
	"atm/internal/taskrt"
)

// These tests pin the handler path (Engine.submit over core.Serve): that
// it answers as the task runtime's workers would, that every kind of
// request is served on it, and that it holds up against concurrent
// training, inserts, evictions and saves. ("Loop" in a test name means a
// task runtime's workers, the reference the handler path is held to.)

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

// loopRef is the reference the handler path is held to: a task runtime
// with one worker over an ATM engine of its own, with the service's
// types registered in the engine's order, running a request's tasks one
// at a time.
type loopRef struct {
	rt    *taskrt.Runtime
	memo  *core.ATM
	types map[string]*taskrt.TaskType
}

func newLoopRef(t *testing.T, memo *core.ATM) *loopRef {
	l := &loopRef{memo: memo, types: map[string]*taskrt.TaskType{}}
	l.rt = taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo})
	t.Cleanup(l.rt.Close)
	for _, k := range Kinds() {
		l.typeOf("", k)
	}
	return l
}

// typeOf registers (tenant, k) on first use, as Engine.registerType does.
func (l *loopRef) typeOf(tenant string, k Kind) *taskrt.TaskType {
	name := typeName(tenant, k)
	if tt := l.types[name]; tt != nil {
		return tt
	}
	tt := l.rt.RegisterType(taskrt.TypeConfig{Name: name, Memoize: k.Memoize, Run: func(t *taskrt.Task) {
		k.Fn(t.Float64s(0), t.Float64s(1))
	}})
	l.types[name] = tt
	return tt
}

// run runs tasks in order and returns their outputs and the ATM
// activity they caused.
func (l *loopRef) run(t *testing.T, tenant string, tasks []Task) ([][]float64, GroupStats) {
	totals := func() (g GroupStats) {
		for _, ty := range l.memo.Stats().Types {
			g.Tasks += ty.Tasks
			g.Executed += ty.Executed
			g.MemoTHT += ty.MemoizedTHT
			g.MemoIKT += ty.MemoizedIKT
		}
		return g
	}
	pre := totals()
	outs := make([][]float64, len(tasks))
	for j, task := range tasks {
		k := mustKind(t, task.Kind)
		out := region.NewFloat64(k.Out)
		l.rt.Submit(l.typeOf(tenant, k), taskrt.In(&region.Float64{Data: task.Input}), taskrt.Out(out))
		l.rt.Wait()
		outs[j] = out.Data
	}
	post := totals()
	return outs, GroupStats{
		Tasks:    post.Tasks - pre.Tasks,
		Executed: post.Executed - pre.Executed,
		MemoTHT:  post.MemoTHT - pre.MemoTHT,
		MemoIKT:  post.MemoIKT - pre.MemoIKT,
	}
}

// TestInlineMatchesLoop sends one stream, one client, through the
// service's submit route and through a task runtime's worker (loopRef):
// every reply holds the worker's outputs bit for bit and the batch the
// worker's counters moved by, and afterwards core.Stats and the table's
// contents are equal — budgeted and not, Static and Dynamic, so training
// included — but for what differs by design: the IKT counters (handlers
// take no IKT slot), provider ids and clock estimates.
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
	for _, v := range variants {
		t.Run(fmt.Sprintf("%v/%d", v.mode, v.budget), func(t *testing.T) {
			cfg := core.Config{Mode: v.mode, THTBudgetBytes: v.budget}
			memo := core.New(cfg)
			var table *core.Snapshot // what the Save hook last read
			eng := newTestEngine(t, Config{Memo: memo, Save: func() (err error) {
				table, err = memo.Snapshot()
				return err
			}})
			srv := NewServer(eng)
			loop := newLoopRef(t, core.New(cfg))
			tasks := 0
			for i, r := range reqs {
				body, err := EncodeBinaryTasks(r.tasks)
				if err != nil {
					t.Fatal(err)
				}
				req := httptest.NewRequest(http.MethodPost, "/v1/submit", bytes.NewReader(body))
				req.Header.Set("Content-Type", binaryContentType)
				if r.tenant != "" {
					req.Header.Set("X-ATM-Tenant", r.tenant)
				}
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Fatalf("request %d: HTTP %d: %s", i, rec.Code, rec.Body)
				}
				var reply submitResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
					t.Fatal(err)
				}
				want, wantBatch := loop.run(t, r.tenant, r.tasks)
				for j, res := range reply.Results {
					if !reflect.DeepEqual(res.Output, want[j]) {
						t.Fatalf("request %d, task %d: the handler answered %v, the worker %v", i, j, res.Output, want[j])
					}
				}
				if got := (GroupStats{reply.Batch.Tasks, reply.Batch.Executed, reply.Batch.MemoTHT, reply.Batch.MemoIKT}); got != wantBatch {
					t.Fatalf("request %d: batch %+v, the worker's %+v", i, got, wantBatch)
				}
				tasks += len(r.tasks)
			}
			if c := eng.Counters(); c.Requests != int64(len(reqs)) || c.Tasks != int64(tasks) || c.Batches != c.Requests {
				t.Errorf("counters %+v after %d requests of %d tasks", c, len(reqs), tasks)
			}

			stats := [2]core.Stats{eng.Stats(), loop.memo.Stats()}
			for s := range stats {
				for i := range stats[s].Types { // estimates from a clock, not counts
					stats[s].Types[i].HashTime, stats[s].Types[i].CopyTime = 0, 0
				}
				// Only the worker's misses register in the IKT.
				stats[s].IKTInserts, stats[s].IKTDefers, stats[s].IKTRejected = 0, 0, 0
			}
			a, b := stats[0], stats[1]
			if !reflect.DeepEqual(a, b) {
				t.Errorf("core.Stats differ\nhandler %+v\nworker  %+v", a, b)
			}
			if v.budget > 0 && a.THTBudgetEvictions == 0 {
				t.Error("the budget never evicted: the test compares no eviction order")
			}
			if v.mode == core.ModeDynamic {
				trained := 0
				for _, ty := range a.Types {
					if ty.TrainingHits > 0 && ty.Steady {
						trained++
					}
				}
				if trained == 0 {
					t.Error("no type trained to steady: the test compares no training")
				}
			}
			if err := eng.Snapshot(); err != nil {
				t.Fatal(err)
			}
			ref, err := loop.memo.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []*core.Snapshot{table, ref} {
				for i := range s.Types {
					for j := range s.Types[i].Entries {
						s.Types[i].Entries[j].Provider = 0 // a task id, or core's own for a handler's insert
					}
				}
			}
			if !reflect.DeepEqual(table.Types, ref.Types) {
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

// TestInlineFallbacks: one case per kind of request the handler once
// handed to a task runtime instead — a training type, a non-memoizable
// kind, a baseline engine — each served now with its outputs and the
// batch its own tasks make; and, as controls, steady requests that miss
// and hit.
func TestInlineFallbacks(t *testing.T) {
	do := func(t *testing.T, e *Engine, tasks []Task, want GroupStats) [][]float64 {
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
		if after.Requests != before.Requests+1 || after.Tasks != before.Tasks+int64(len(tasks)) || after.Queued != 0 {
			t.Errorf("not counted once: counters %+v -> %+v", before, after)
		}
		return outs
	}
	hot, want := hotTasks(t, 1)

	t.Run("served", func(t *testing.T) { // the control: misses, then hits
		e := newTestEngine(t, Config{Memo: core.New(core.Config{Mode: core.ModeStatic})})
		checkOutputs(t, do(t, e, hot, GroupStats{Tasks: 5, Executed: 5}), want)
		checkOutputs(t, do(t, e, hot, GroupStats{Tasks: 5, MemoTHT: 5}), want)
		if st := e.Stats(); st.IKTInserts != 0 {
			t.Errorf("handler misses took %d IKT slots, want 0", st.IKTInserts)
		}
	})
	t.Run("first miss", func(t *testing.T) { // a miss behind hits is served too
		e := newTestEngine(t, Config{Memo: core.New(core.Config{Mode: core.ModeStatic})})
		do(t, e, hot, GroupStats{Tasks: 5, Executed: 5})
		cold, coldWant := hotTasks(t, 2)
		mixed := append(append([]Task(nil), hot[:3]...), cold[3])
		outs := do(t, e, mixed, GroupStats{Tasks: 4, Executed: 1, MemoTHT: 3})
		checkOutputs(t, outs, append(append([][]float64(nil), want[:3]...), coldWant[3]))
	})
	t.Run("training", func(t *testing.T) {
		e := newTestEngine(t, Config{Memo: core.New(core.Config{Mode: core.ModeDynamic})})
		for rep := 0; rep < 3; rep++ { // far from LTraining: every task still runs
			checkOutputs(t, do(t, e, hot, GroupStats{Tasks: 5, Executed: 5}), want)
		}
		for _, ty := range e.Stats().Types {
			if ty.Tasks > 0 && (ty.Steady || ty.TrainingHits != 2) {
				t.Errorf("%s: %+v, want two grades and still training", ty.Name, ty)
			}
		}
	})
	t.Run("not memoizable", func(t *testing.T) {
		e := newTestEngine(t, Config{Memo: core.New(core.Config{Mode: core.ModeStatic})})
		do(t, e, hot, GroupStats{Tasks: 5, Executed: 5})
		spin := mustKind(t, "spin")
		in := Input(spin, 1, 1)
		spinWant := make([]float64, spin.Out)
		spin.Fn(in, spinWant)
		mixed := append(append([]Task(nil), hot...), Task{Kind: "spin", Input: in})
		// The batch counts what ATM saw: the spin task is not among it.
		outs := do(t, e, mixed, GroupStats{Tasks: 5, MemoTHT: 5})
		checkOutputs(t, outs, append(append([][]float64(nil), want...), spinWant))
	})
	t.Run("no memoizer", func(t *testing.T) {
		e := newTestEngine(t, Config{})
		checkOutputs(t, do(t, e, hot, GroupStats{}), want)
	})
}

// TestAbandonedInlineLeavesOutputsZeroed: a request's output slab comes
// from the pool uncleared, and a kernel is not obliged to write every
// element — so a kernel that writes nothing must still return zeros,
// for a memoizable miss and for a non-memoizable task, after requests
// that filled the slab.
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
		{Name: "plain", In: 1, Out: 32, Fn: none}, // not memoizable
	}
	e := newTestEngine(t, Config{Memo: core.New(core.Config{Mode: core.ModeStatic}), KindList: kinds})
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
	if c := e.Counters(); c.Requests != 81 {
		t.Fatalf("%d requests served, want 81", c.Requests)
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
	e := newTestEngine(t, Config{Backlog: 64, Memo: core.New(core.Config{Mode: core.ModeStatic, THTBudgetBytes: 1 << 20})})
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
	if c := e.Counters(); c.ShedRequests != 1 || c.ShedTasks != 5 || c.Requests != 2 {
		t.Errorf("counters: %+v", c)
	}
}

// TestHandlersTrainAgainstSaves: four clients train one Dynamic type on
// their handlers — grades that pass and fail, levels that move, refresh
// inserts and evictions under a 64 KiB budget — while the engine saves,
// back to back, into a chain held in memory: a delta each time, and
// every fifth save a full snapshot that starts the chain anew. After Close's
// final save, the chain restored into a fresh engine holds the live
// engine's type metadata and table. Run with -race.
func TestHandlersTrainAgainstSaves(t *testing.T) {
	cfg := core.Config{Mode: core.ModeDynamic, THTBudgetBytes: 64 << 10}
	memo := core.New(cfg)
	memo.EnableDeltaTracking()
	base, err := memo.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var deltas []*core.Delta
	var saves, trainingSaves atomic.Int64
	luStats := func() (s core.TypeStats) {
		for _, ty := range memo.Stats().Types {
			if ty.Name == "svc/lu" {
				s = ty
			}
		}
		return s
	}
	trains := func() bool { return !luStats().Steady }
	e := New(Config{Memo: memo, Save: func() error {
		// Saves run one at a time: base and deltas need no lock of their own.
		if trains() {
			trainingSaves.Add(1)
		}
		if saves.Add(1)%5 == 0 {
			snap, err := memo.Snapshot()
			if err != nil {
				return err
			}
			base, deltas = snap, nil
			return nil
		}
		d, err := memo.SnapshotDelta()
		if err != nil {
			return err
		}
		deltas = append(deltas, d)
		return nil
	}})
	lu := mustKind(t, "lu")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				tasks := []Task{
					{Kind: "lu", Input: Input(lu, uint64(rng.Intn(40)), 1)},
					{Kind: "lu", Input: Input(lu, uint64(rng.Intn(400)), 1)},
				}
				if _, _, err := e.Do(tasks); err != nil {
					t.Error(err)
					return
				}
				if trains() {
					time.Sleep(time.Millisecond) // let saves land while the type trains
				}
			}
		}(c)
	}
	deadline := time.Now().Add(30 * time.Second)
	for trains() || saves.Load() < 40 || memo.Stats().THTBudgetEvictions == 0 {
		if time.Now().After(deadline) {
			t.Errorf("after 30 s: %d saves, %d evictions; training done: %v", saves.Load(), memo.Stats().THTBudgetEvictions, !trains())
			break
		}
		if err := e.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.THTBudgetEvictions == 0 || luStats().TrainingFailures == 0 || trainingSaves.Load() < 3 {
		t.Errorf("%d saves while training; nothing was evicted or no grade failed: %+v", trainingSaves.Load(), st)
	}

	// Restored without the budget, whose admission decisions a replay
	// would not repeat: the chain then folds to exactly what it recorded.
	unbounded := cfg
	unbounded.THTBudgetBytes = 0
	restored, err := core.RestoreChain(unbounded, base, deltas)
	if err != nil {
		t.Fatal(err)
	}
	newLoopRef(t, restored) // registers the types, and so installs their sections
	liveSnap, err := memo.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	gotSnap, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sections := func(s *core.Snapshot) map[string]core.TypeSnapshot {
		m := map[string]core.TypeSnapshot{}
		for _, sec := range s.Types {
			if sec.Steady {
				sec.Successes = 0 // a steady type's count is not restored, and not used
			}
			slices.SortFunc(sec.Entries, func(a, b core.EntrySnapshot) int {
				return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(a.Level, b.Level), cmp.Compare(a.Provider, b.Provider))
			})
			m[sec.Name] = sec
		}
		return m
	}
	live, got := sections(liveSnap), sections(gotSnap)
	if sec := live["svc/lu"]; !sec.Steady || len(sec.Entries) == 0 {
		t.Fatalf("live lu section: steady %v, %d entries", sec.Steady, len(sec.Entries))
	}
	if !reflect.DeepEqual(live, got) {
		for name, sec := range live {
			g := got[name]
			t.Errorf("%s: live steady %v level %d successes %d, %d entries; restored steady %v level %d successes %d, %d entries",
				name, sec.Steady, sec.Level, sec.Successes, len(sec.Entries), g.Steady, g.Level, g.Successes, len(g.Entries))
		}
	}
}

// TestColdDynamicTrainsOnHandlers: two clients drive a cold Dynamic
// engine with requests of one task of each memoizable kind, over four
// keys, until every kind is steady. Training runs on the handlers, so
// every reply served while its type trains is its kernel's output bit
// for bit.
func TestColdDynamicTrainsOnHandlers(t *testing.T) {
	memo := core.New(core.Config{Mode: core.ModeDynamic})
	e := newTestEngine(t, Config{Memo: memo})
	steady := func(name string) bool {
		for _, ty := range memo.Stats().Types {
			if ty.Name == mustKind(t, name).TypeName() {
				return ty.Steady
			}
		}
		return false
	}
	allSteady := func() bool {
		for _, name := range memoKindNames {
			if !steady(name) {
				return false
			}
		}
		return true
	}
	var exact atomic.Int64
	var wg sync.WaitGroup
	deadline := time.Now().Add(30 * time.Second)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for !allSteady() && time.Now().Before(deadline) {
				tasks, want := hotTasks(t, uint64(rng.Intn(4)))
				outs, _, err := e.Do(tasks)
				if err != nil {
					t.Error(err)
					return
				}
				for j, name := range memoKindNames {
					if steady(name) {
						continue // it may have been served from the table
					}
					// Still training after the reply: the task ran its kernel.
					exact.Add(1)
					if !reflect.DeepEqual(outs[j], want[j]) {
						t.Errorf("%s, served while training: %v, want %v", name, outs[j], want[j])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	for _, name := range memoKindNames {
		if !steady(name) {
			t.Errorf("%s never left training", name)
		}
	}
	if exact.Load() == 0 {
		t.Error("no reply was served while its type trained")
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
	e := newTestEngine(t, Config{Memo: memo})
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
