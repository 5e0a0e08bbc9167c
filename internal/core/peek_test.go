package core

import (
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atm/internal/region"
	"atm/internal/taskrt"
	"atm/internal/trace"
)

// TestPeek exercises the read-only lookup API behind the service
// layer's GET /v1/lookup: it must miss before the table holds the
// entry, hit with the stored outputs after, and never mutate stats in
// a way that breaks task accounting.
func TestPeek(t *testing.T) {
	memo := New(Config{Mode: ModeStatic})
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo})
	defer rt.Close()
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: doubler})

	in := region.NewFloat64(64)
	for i := range in.Data {
		in.Data[i] = float64(i) * 0.5
	}
	peekOut := region.NewFloat64(64)
	if memo.Peek(tt, []region.Region{in}, []region.Region{peekOut}) {
		t.Fatal("Peek hit on an empty table")
	}

	out := region.NewFloat64(64)
	rt.Submit(tt, taskrt.In(in), taskrt.Out(out))
	rt.Wait()

	if !memo.Peek(tt, []region.Region{in}, []region.Region{peekOut}) {
		t.Fatal("Peek missed after the task executed")
	}
	for i := range out.Data {
		if peekOut.Data[i] != out.Data[i] {
			t.Fatalf("peeked output[%d] = %v, want %v", i, peekOut.Data[i], out.Data[i])
		}
	}

	// A different input misses.
	other := region.NewFloat64(64)
	other.Data[0] = 999
	if memo.Peek(tt, []region.Region{other}, []region.Region{peekOut}) {
		t.Fatal("Peek hit for an input never executed")
	}

	// Output shape mismatch misses rather than corrupting anything.
	short := region.NewFloat64(8)
	if memo.Peek(tt, []region.Region{in}, []region.Region{short}) {
		t.Fatal("Peek hit despite output shape mismatch")
	}
}

// hitsRig is one engine with a memoizable "double" type over a runtime,
// plus the regions of the tasks a test serves.
type hitsRig struct {
	memo *ATM
	rt   *taskrt.Runtime
	tt   *taskrt.TaskType
}

func newHitsRig(t *testing.T, cfg Config) *hitsRig {
	t.Helper()
	r := &hitsRig{memo: New(cfg)}
	r.rt = taskrt.New(taskrt.Config{Workers: 1, Memoizer: r.memo})
	t.Cleanup(r.rt.Close)
	r.tt = r.rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: doubler})
	return r
}

// run submits one task per key through the runtime and waits.
func (r *hitsRig) run(keys ...int) {
	for _, k := range keys {
		r.rt.Submit(r.tt, taskrt.In(mkInput(k)), taskrt.Out(region.NewFloat64(16)))
	}
	r.rt.Wait()
}

// doubleRegions is doubler as a ServeTask body.
func doubleRegions(ins, outs []region.Region) {
	in, out := ins[0].(*region.Float64).Data, outs[0].(*region.Float64).Data
	for i := range out {
		out[i] = 2 * in[i]
	}
}

// serveTasks builds a Serve request of one task per key; the outputs
// start at -1 everywhere so an untouched one is recognisable.
func (r *hitsRig) serveTasks(keys ...int) ([]ServeTask, []*region.Float64) {
	ins := make([]*region.Float64, len(keys))
	for i, k := range keys {
		ins[i] = mkInput(k)
	}
	return r.serveInputs(ins...)
}

// serveInputs is serveTasks for given inputs.
func (r *hitsRig) serveInputs(ins ...*region.Float64) ([]ServeTask, []*region.Float64) {
	tasks := make([]ServeTask, len(ins))
	outs := make([]*region.Float64, len(ins))
	for i, in := range ins {
		outs[i] = region.NewFloat64(16)
		for j := range outs[i].Data {
			outs[i].Data[j] = -1
		}
		tasks[i] = ServeTask{Type: state(r.tt), Ins: []region.Region{in}, Outs: []region.Region{outs[i]}, Run: doubleRegions}
	}
	return tasks, outs
}

// admitAll admits every miss; refuseAll none.
func admitAll(int) bool  { return true }
func refuseAll(int) bool { return false }

// checkDoubled reports the first task whose output is not twice its
// key's input, and whether there was none. Safe off the test goroutine.
func checkDoubled(t *testing.T, keys []int, outs []*region.Float64) bool {
	t.Helper()
	for i, k := range keys {
		for j, v := range mkInput(k).Data {
			if outs[i].Data[j] != 2*v {
				t.Errorf("task %d (key %d): output[%d] = %v, want %v", i, k, j, outs[i].Data[j], 2*v)
				return false
			}
		}
	}
	return true
}

// tableState is everything a lookup can leave behind in the table.
type tableState struct {
	lookups, hits int64
	sketchAdds    int64
	extraRefs     int // references beyond the table's own
}

func (r *hitsRig) tableState() tableState {
	tht := r.memo.tht
	var s tableState
	s.lookups, s.hits, _ = tht.Counters()
	if tht.sketch != nil {
		s.sketchAdds = tht.sketch.adds.Load()
	}
	for bi := range tht.buckets {
		b := &tht.buckets[bi]
		for i := 0; i < b.n; i++ {
			s.extraRefs += int(b.ring[(b.head+i)%len(b.ring)].e.refs.Load()) - 1
		}
	}
	return s
}

// budgets are the table shapes the lookup-side-effect tests run under:
// unbudgeted (no sketch) and budgeted (every counted lookup feeds the
// admission sketch).
var budgets = []int64{0, 1 << 20}

// TestPeekIsQuiet: a lookup is a peek. Hit or miss, it moves no table
// counter and feeds no sketch.
func TestPeekIsQuiet(t *testing.T) {
	for _, budget := range budgets {
		r := newHitsRig(t, Config{Mode: ModeStatic, THTBudgetBytes: budget})
		r.run(1)
		before, stats := r.tableState(), r.memo.Stats()
		out := []region.Region{region.NewFloat64(16)}
		if !r.memo.Peek(r.tt, []region.Region{mkInput(1)}, out) {
			t.Fatalf("budget %d: Peek missed a stored entry", budget)
		}
		if r.memo.Peek(r.tt, []region.Region{mkInput(2)}, out) {
			t.Fatalf("budget %d: Peek hit an input never run", budget)
		}
		if after := r.tableState(); after != before {
			t.Errorf("budget %d: Peek changed the table: %+v -> %+v", budget, before, after)
		}
		if after := r.memo.Stats(); !reflect.DeepEqual(after, stats) {
			t.Errorf("budget %d: Peek changed Stats:\n%+v\n%+v", budget, stats, after)
		}
	}
}

// withoutPathDiffs zeroes what differs between the two paths by design:
// time estimates (measurements, not counts) and the IKT counters, which
// only runtime misses move.
func withoutPathDiffs(st Stats) Stats {
	for i := range st.Types {
		st.Types[i].HashTime, st.Types[i].CopyTime = 0, 0
	}
	st.IKTInserts, st.IKTDefers, st.IKTRejected = 0, 0, 0
	return st
}

// TestServeHitsRecordsWhatWorkersRecord runs the same warm tasks, then
// the same misses — one key twice — through a worker (OnReady and
// OnFinished) on one engine and through Serve on another: outputs,
// Stats, the table's eviction state and its keys must agree. Then the
// same for a Dynamic type, training included: dynamicStream through a
// worker one task at a time, and through Serve in requests of one to
// four tasks, must leave equal outputs for every task, equal Stats and
// chosen level, equal eviction state and equal saved table keys and
// type metadata — unbudgeted, budgeted, and under a budget small enough
// to evict.
func TestServeHitsRecordsWhatWorkersRecord(t *testing.T) {
	for _, budget := range budgets {
		cfg := Config{Mode: ModeStatic, THTBudgetBytes: budget}
		worker, inline := newHitsRig(t, cfg), newHitsRig(t, cfg)
		worker.run(1, 2, 3)
		inline.run(1, 2, 3)

		for _, keys := range [][]int{{3, 1, 1, 2}, {9, 3, 9, 10}} {
			worker.run(keys...)
			tasks, outs := inline.serveTasks(keys...)
			executed, ok := inline.memo.Serve(tasks, admitAll)
			if !ok {
				t.Fatalf("budget %d: Serve refused %v", budget, keys)
			}
			checkDoubled(t, keys, outs)
			if want := map[bool]int{false: 0, true: 2}[keys[0] == 9]; executed != want {
				t.Errorf("budget %d: %v ran %d bodies, want %d", budget, keys, executed, want)
			}
			ws, is := withoutPathDiffs(worker.memo.Stats()), withoutPathDiffs(inline.memo.Stats())
			if !reflect.DeepEqual(ws, is) {
				t.Errorf("budget %d, %v: Stats differ\nworker %+v\ninline %+v", budget, keys, ws, is)
			}
			if w, i := worker.tableState(), inline.tableState(); w != i {
				t.Errorf("budget %d, %v: table state differs: worker %+v, inline %+v", budget, keys, w, i)
			}
		}
		if got := inline.memo.Stats().Types[0]; got.HashTime <= 0 || got.CopyTime <= 0 {
			t.Errorf("budget %d: warm-up tasks left no time estimate: hash %v copy %v", budget, got.HashTime, got.CopyTime)
		}
		ws, err := worker.memo.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		is, err := inline.memo.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		keysOf := func(s *Snapshot) map[uint64]int {
			m := map[uint64]int{}
			for _, e := range s.Types[0].Entries {
				m[e.Key]++
			}
			return m
		}
		if !reflect.DeepEqual(keysOf(ws), keysOf(is)) {
			t.Errorf("budget %d: table keys differ\nworker %v\ninline %v", budget, keysOf(ws), keysOf(is))
		}
		var served int
		for _, e := range is.Types[0].Entries {
			if e.Provider&outOfBandProvider != 0 {
				served++
			}
		}
		if served != 2 {
			t.Errorf("budget %d: %d entries carry an out-of-band provider id, want Serve's 2", budget, served)
		}
	}

	for _, budget := range append(budgets, 4<<10) {
		cfg := Config{Mode: ModeDynamic, THTBudgetBytes: budget}
		worker, inline := newHitsRig(t, cfg), newHitsRig(t, cfg)
		stream := dynamicStream()
		for i, n := 0, 1; i < len(stream); i, n = i+n, 1+(n%4) {
			req := stream[i:min(i+n, len(stream))]
			tasks, outs := inline.serveInputs(req...)
			if _, ok := inline.memo.Serve(tasks, admitAll); !ok {
				t.Fatalf("budget %d: Serve refused request %d", budget, i)
			}
			for j, in := range req {
				want := region.NewFloat64(16)
				worker.rt.Submit(worker.tt, taskrt.In(in), taskrt.Out(want))
				worker.rt.Wait()
				if !reflect.DeepEqual(outs[j].Data, want.Data) {
					t.Fatalf("budget %d, task %d: Serve answered %v, the worker %v", budget, i+j, outs[j].Data, want.Data)
				}
			}
		}
		ws, is := withoutPathDiffs(worker.memo.Stats()), withoutPathDiffs(inline.memo.Stats())
		if !reflect.DeepEqual(ws, is) {
			t.Errorf("budget %d: Stats differ\nworker %+v\ninline %+v", budget, ws, is)
		}
		// Under the small budget admission keeps too few entries for
		// training to end; that table must evict instead.
		small := budget == 4<<10
		if ty := ws.Types[0]; ty.TrainingFailures == 0 || !small && (!ty.Steady || ty.MemoizedTHT == 0) {
			t.Errorf("budget %d: the stream left %+v: no failed grade, no steady phase or no hit to compare", budget, ty)
		}
		if small && ws.THTBudgetEvictions == 0 {
			t.Errorf("budget %d: nothing was evicted", budget)
		}
		wl, wsteady := worker.memo.ChosenLevel(worker.tt)
		il, isteady := inline.memo.ChosenLevel(inline.tt)
		if wl != il || wsteady != isteady {
			t.Errorf("budget %d: chosen level: worker %d/%v, inline %d/%v", budget, wl, wsteady, il, isteady)
		}
		if w, i := worker.tableState(), inline.tableState(); w != i {
			t.Errorf("budget %d: table state differs: worker %+v, inline %+v", budget, w, i)
		}
		wsnap, err := worker.memo.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		isnap, err := inline.memo.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []*Snapshot{wsnap, isnap} {
			for i := range s.Types[0].Entries {
				s.Types[0].Entries[i].Provider = 0 // a task id, or Serve's own
			}
		}
		if !reflect.DeepEqual(wsnap.Types, isnap.Types) {
			t.Errorf("budget %d: saved tables differ\nworker %+v\ninline %+v", budget, wsnap.Types, isnap.Types)
		}
	}
}

// nearInput is key k's input with every element's top mantissa bit
// flipped: each element moves by a quarter to a half of itself while its
// sign and exponent, the most significant byte the low p levels sample
// first, stay as they were. Its key matches k's until the level samples
// the next byte down, and a grade of it against k's outputs fails τmax.
func nearInput(k int) *region.Float64 {
	in := mkInput(k)
	for i, v := range in.Data {
		in.Data[i] = math.Float64frombits(math.Float64bits(v) ^ 1<<51)
	}
	return in
}

// dynamicStream is a Dynamic type's life: fresh keys, each followed by an
// exact repeat (a grade that passes) and a near repeat (one that fails
// while the level is low, a miss once it is not), until training ends;
// then steady traffic of repeats, near repeats and fresh keys.
func dynamicStream() []*region.Float64 {
	var ins []*region.Float64
	for k := 1; k <= 60; k++ {
		ins = append(ins, mkInput(k), mkInput(k), nearInput(k))
	}
	for i := 0; i < 60; i++ {
		switch k := 1 + i%7; i % 3 {
		case 0:
			ins = append(ins, mkInput(k))
		case 1:
			ins = append(ins, nearInput(k))
		default:
			ins = append(ins, mkInput(1000+i))
		}
	}
	return ins
}

// TestServeHitsAbandonedLeavesNoTrace: misses among hits whose admission
// is refused, and the call reports false having changed nothing —
// outputs, Stats, counters, sketch, entry references. admit hears every
// miss of the probe, a repeated key once per task.
func TestServeHitsAbandonedLeavesNoTrace(t *testing.T) {
	for _, budget := range budgets {
		r := newHitsRig(t, Config{Mode: ModeStatic, THTBudgetBytes: budget})
		r.run(1, 2)
		before, stats := r.tableState(), r.memo.Stats()
		tasks, outs := r.serveTasks(1, 9, 2, 9) // 9 was never run
		var asked int
		if _, ok := r.memo.Serve(tasks, func(m int) bool { asked = m; return false }); ok {
			t.Fatalf("budget %d: Serve served a request whose misses were refused", budget)
		}
		if asked != 2 {
			t.Errorf("budget %d: admit asked for %d misses, want 2", budget, asked)
		}
		for i, o := range outs {
			for j, v := range o.Data {
				if v != -1 {
					t.Fatalf("budget %d: refused request wrote output %d[%d] = %v", budget, i, j, v)
				}
			}
		}
		if after := r.tableState(); after != before {
			t.Errorf("budget %d: refused request changed the table: %+v -> %+v", budget, before, after)
		}
		if after := r.memo.Stats(); !reflect.DeepEqual(after, stats) {
			t.Errorf("budget %d: refused request changed Stats:\n%+v\n%+v", budget, stats, after)
		}
	}
}

// TestServeHitsFallbacks: Serve serves every kind of task. Each case is
// one of the requests Serve used to hand back whole to a task runtime,
// with a warm hit ahead of the task that made it do so, and admit hears
// the number of bodies to run.
func TestServeHitsFallbacks(t *testing.T) {
	serves := func(t *testing.T, r *hitsRig, tasks []ServeTask, bodies, executed int) {
		t.Helper()
		asked := 0
		n, ok := r.memo.Serve(tasks, func(m int) bool { asked = m; return true })
		if !ok || n != executed || asked != bodies {
			t.Fatalf("Serve = %d, %v with admit asked for %d; want %d executed of %d bodies", n, ok, asked, executed, bodies)
		}
	}
	t.Run("not memoizable", func(t *testing.T) {
		r := newHitsRig(t, Config{Mode: ModeStatic})
		r.run(1)
		tasks, outs := r.serveTasks(1, 2)
		tasks[1].Type = nil // a type that is not memoizable
		before := r.tableState()
		serves(t, r, tasks, 1, 0) // the plain body runs, and ATM does not see it
		checkDoubled(t, []int{1, 2}, outs)
		after := r.tableState()
		if after.lookups != before.lookups+1 || after.hits != before.hits+1 {
			t.Errorf("table: %+v -> %+v, want the hit's lookup alone", before, after)
		}
		if st := r.memo.Stats(); len(st.Types) != 1 || st.Types[0].Tasks != 2 || st.THTEntries != 1 {
			t.Errorf("the plain task left a trace in core: %+v", st)
		}
	})
	t.Run("training", func(t *testing.T) {
		r := newHitsRig(t, Config{Mode: ModeDynamic})
		r.run(1, 1, 1) // a handful of grades: far from LTraining
		if _, steady := r.memo.ChosenLevel(r.tt); steady {
			t.Fatal("type went steady after three tasks")
		}
		before := r.memo.Stats().Types[0]
		tasks, outs := r.serveTasks(1)
		serves(t, r, tasks, 1, 1)
		checkDoubled(t, []int{1}, outs)
		after := r.memo.Stats().Types[0]
		if after.Tasks != before.Tasks+1 || after.Executed != before.Executed+1 || after.TrainingHits != before.TrainingHits+1 {
			t.Errorf("a training task served: %+v -> %+v, want one more task, run and graded", before, after)
		}
	})
	t.Run("failed grades double p", func(t *testing.T) {
		// Three failed grades on one output region: p doubles each time,
		// exactly as it would for a worker's task.
		r := newHitsRig(t, Config{Mode: ModeDynamic})
		out := region.NewFloat64(16)
		task := func(run func(ins, outs []region.Region)) []ServeTask {
			return []ServeTask{{Type: state(r.tt), Ins: []region.Region{mkInput(1)}, Outs: []region.Region{out}, Run: run}}
		}
		triple := func(ins, outs []region.Region) {
			in, out := ins[0].(*region.Float64).Data, outs[0].(*region.Float64).Data
			for i := range out {
				out[i] = 3 * in[i]
			}
		}
		level, _ := r.memo.ChosenLevel(r.tt)
		const fails = 3
		for i := 0; i < fails; i++ {
			serves(t, r, task(doubleRegions), 1, 1) // no entry at this level: inserted
			serves(t, r, task(triple), 1, 1)        // graded against it: fails
		}
		st := r.memo.Stats().Types[0]
		if st.TrainingFailures != fails || st.Level != level+fails {
			t.Errorf("after %d failed grades: %+v, want as many failures and levels up from %d", fails, st, level)
		}
	})
	t.Run("tracer", func(t *testing.T) {
		memo := New(Config{Mode: ModeStatic})
		rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo, Tracer: trace.New(1, false)})
		defer rt.Close()
		r := &hitsRig{memo: memo, rt: rt}
		r.tt = rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: doubler})
		r.run(1)
		tasks, outs := r.serveTasks(1, 2)
		serves(t, r, tasks, 1, 1)
		checkDoubled(t, []int{1, 2}, outs)
	})
	t.Run("output shape", func(t *testing.T) {
		r := newHitsRig(t, Config{Mode: ModeStatic})
		r.run(1)
		tasks, _ := r.serveTasks(1, 1)
		short := region.NewFloat64(8)
		tasks[1].Outs = []region.Region{short}
		serves(t, r, tasks, 1, 1) // the mismatched task runs as a miss
		for j, v := range short.Data {
			if want := 2 * mkInput(1).Data[j]; v != want {
				t.Fatalf("short output[%d] = %v, want %v", j, v, want)
			}
		}
	})
}

// TestServeHitsAllocationFree: with the caller's []ServeTask reused, a
// served all-hit request and one whose misses are refused both allocate
// nothing.
func TestServeHitsAllocationFree(t *testing.T) {
	r := newHitsRig(t, Config{Mode: ModeFixed, FixedLevel: 13})
	r.run(1, 2)
	hits, _ := r.serveTasks(1, 2, 1)
	miss, _ := r.serveTasks(1, 9)
	if _, ok := r.memo.Serve(hits, refuseAll); !ok {
		t.Fatal("an all-hit request was refused")
	}
	if _, ok := r.memo.Serve(miss, refuseAll); ok {
		t.Fatal("a refused miss was served")
	}
	if avg := testing.AllocsPerRun(200, func() { r.memo.Serve(hits, refuseAll) }); avg != 0 {
		t.Errorf("a served request allocates %.1f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { r.memo.Serve(miss, refuseAll) }); avg != 0 {
		t.Errorf("a refused request allocates %.1f/op, want 0", avg)
	}
}

// TestServeHitsRacesInsertEvict: eight goroutines serve hot keys — hits,
// or misses they run and insert when a key is out — while the runtime
// inserts and evicts under a byte budget, or by ring replacement in a
// small unbudgeted table, with the delta log on and drained. An entry
// recycled while a reader held it would show as a wrong output (or a
// race report); afterwards every resident holds exactly the table's
// reference and the stats partition. Run with -race.
func TestServeHitsRacesInsertEvict(t *testing.T) {
	for _, cfg := range []Config{
		// 16 floats out: 152 bytes an entry, so about 26 fit.
		{Mode: ModeStatic, THTBudgetBytes: 4 << 10},
		// Unbudgeted: four buckets of eight, so the rings replace.
		{Mode: ModeStatic, NBits: 2, M: 8},
	} {
		budget := cfg.THTBudgetBytes
		r := newHitsRig(t, cfg)
		r.memo.EnableDeltaTracking()
		hot := []int{1, 2, 3, 4}
		var served, executed atomic.Int64
		var wg sync.WaitGroup
		stop := make(chan struct{})
		// The churn starts only once a serving goroutine has probed a hot
		// key and is running the miss: no round has inserted one yet, so
		// Serve's miss branch races the first inserts by construction.
		// (Once the admission sketch has learnt the hot keys, no newcomer
		// evicts them, and a later miss may never come.)
		probed := make(chan struct{})
		var probedOnce sync.Once
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				defer probedOnce.Do(func() { close(probed) }) // a goroutine that fails must not hang the churn
				keys := []int{hot[g%4], hot[(g+1)%4]}
				tasks, outs := r.serveTasks(keys...)
				for i := range tasks {
					run := tasks[i].Run
					tasks[i].Run = func(ins, outs []region.Region) {
						probedOnce.Do(func() { close(probed) })
						run(ins, outs)
					}
				}
				for {
					select {
					case <-stop:
						return
					default:
					}
					for _, o := range outs {
						clear(o.Data)
					}
					n, ok := r.memo.Serve(tasks, admitAll)
					if !ok {
						t.Errorf("budget %d: Serve refused a steady request", budget)
						return
					}
					served.Add(1)
					executed.Add(int64(n))
					if !checkDoubled(t, keys, outs) {
						return
					}
				}
			}(g)
		}
		<-probed
		for round := 0; round < 100; round++ {
			// Re-run the hot keys (hits, or re-inserts after an eviction)
			// among never-repeating ones that push residents out.
			keys := append([]int(nil), hot...)
			for i := 0; i < 8; i++ {
				keys = append(keys, 1000+round*8+i)
			}
			r.run(keys...)
			if round%10 == 9 {
				if _, err := r.memo.SnapshotDelta(); err != nil {
					t.Fatal(err)
				}
			}
		}
		close(stop)
		wg.Wait()
		if _, err := r.memo.SnapshotDelta(); err != nil { // the log's references go
			t.Fatal(err)
		}
		if served.Load() == 0 || executed.Load() == 0 {
			t.Errorf("budget %d: %d requests served, %d misses run: a branch never raced", budget, served.Load(), executed.Load())
		}
		st := r.memo.Stats()
		if st.THTEvictions == 0 {
			t.Errorf("budget %d: the table never evicted", budget)
		}
		ty := st.Types[0]
		if ty.Executed+ty.MemoizedTHT+ty.MemoizedIKT != ty.Tasks {
			t.Errorf("budget %d: %d executed + %d THT + %d IKT != %d tasks", budget, ty.Executed, ty.MemoizedTHT, ty.MemoizedIKT, ty.Tasks)
		}
		if ts := r.tableState(); ts.extraRefs != 0 {
			t.Errorf("budget %d: resident entries hold %d references beyond the table's own, want 0", budget, ts.extraRefs)
		}
	}
}

// entryID is what an eviction tombstone names.
type entryID struct {
	key      uint64
	level    int8
	provider uint64
}

// TestServeRacesSnapshots: four goroutines run misses through Serve,
// inserting and evicting under a 4 KiB budget, while a saver takes a
// delta every 2 ms (LendDelta and SnapshotDelta in turn) and, every
// tenth save, a full Snapshot. A full
// snapshot plus the deltas after it must replay to the table: every
// tombstone finds its insert (none was lost in the window between a
// snapshot's table scan and its log drain), and the last chain folds to
// the live table (no entry kept after its eviction, none saved twice).
// Run with -race.
func TestServeRacesSnapshots(t *testing.T) {
	r := newHitsRig(t, Config{Mode: ModeStatic, THTBudgetBytes: 4 << 10})
	r.memo.EnableDeltaTracking()
	type op struct {
		id   entryID
		tomb bool
	}
	var (
		fulls  [][]entryID // each full snapshot's entries
		fullAt []int       // the index of the first delta after each
		deltas [][]op
	)
	idsOf := func(s *Snapshot) []entryID {
		var ids []entryID
		for _, sec := range s.Types {
			for _, e := range sec.Entries {
				ids = append(ids, entryID{e.Key, e.Level, e.Provider})
			}
		}
		return ids
	}
	record := func(d *Delta) error {
		ops := make([]op, len(d.Entries))
		for i, de := range d.Entries {
			ops[i] = op{entryID{de.Key, de.Level, de.Provider}, de.Tombstone}
		}
		deltas = append(deltas, ops)
		return nil
	}
	// Both save forms: LendDelta, atmd's, and SnapshotDelta, which
	// releases each logged entry — free for a racing insert to recycle —
	// while it builds the delta.
	save := func(lend bool) {
		if lend {
			if err := r.memo.LendDelta(record); err != nil {
				t.Fatal(err)
			}
			return
		}
		d, err := r.memo.SnapshotDelta()
		if err != nil {
			t.Fatal(err)
		}
		record(d)
	}

	var wg sync.WaitGroup
	var executed atomic.Int64
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
				// Fresh keys, each served twice: a miss, then mostly a hit.
				k := 10000 + (g<<20 | i/2)
				tasks, outs := r.serveTasks(k)
				n, ok := r.memo.Serve(tasks, admitAll)
				if !ok {
					t.Error("Serve refused a steady request")
					return
				}
				executed.Add(int64(n))
				if !checkDoubled(t, []int{k}, outs) {
					return
				}
			}
		}(g)
	}
	for n := 0; n < 200; n++ {
		time.Sleep(2 * time.Millisecond)
		if n%10 != 5 {
			save(n%2 == 0)
			continue
		}
		snap, err := r.memo.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		fulls, fullAt = append(fulls, idsOf(snap)), append(fullAt, len(deltas))
	}
	close(stop)
	wg.Wait()
	save(true)
	live, err := r.memo.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := map[entryID]int{}
	for _, id := range idsOf(live) {
		want[id]++
	}
	if st := r.memo.Stats(); executed.Load() == 0 || st.THTBudgetEvictions == 0 {
		t.Fatalf("%d misses run, %d budget evictions: nothing raced the saves", executed.Load(), st.THTBudgetEvictions)
	}
	// A full snapshot supersedes the chain before it, so full snapshot i
	// stands with the deltas up to the next one: each of their tombstones
	// must find its insert there, and the last snapshot's chain must fold
	// to the live table.
	fullAt = append(fullAt, len(deltas))
	for i, base := range fulls {
		got := map[entryID]int{}
		for _, id := range base {
			got[id]++
		}
		lost := 0
		for _, ops := range deltas[fullAt[i]:fullAt[i+1]] {
			for _, o := range ops {
				switch {
				case !o.tomb:
					got[o.id]++
				case got[o.id] == 0:
					lost++ // evicted, so it was inserted: but saved nowhere
				default:
					if got[o.id]--; got[o.id] == 0 {
						delete(got, o.id)
					}
				}
			}
		}
		if lost != 0 {
			t.Errorf("full snapshot %d: %d tombstones of the deltas after it name an insert neither holds", i, lost)
		}
		if i == len(fulls)-1 && !reflect.DeepEqual(got, want) {
			t.Errorf("the last full snapshot plus the deltas after it replay to %d entries, the live table holds %d", len(got), len(want))
		}
	}
}

// TestServeReprobesAfterInsert: a hit held from the probe can be evicted
// by a sibling's insert before its turn, and then a worker running the
// request in order would miss it. In rings of one entry, request
// (1, k, 1) with k in key 1's bucket runs two bodies on either path.
func TestServeReprobesAfterInsert(t *testing.T) {
	cfg := Config{Mode: ModeStatic, NBits: 1, M: 1}
	worker, inline := newHitsRig(t, cfg), newHitsRig(t, cfg)
	bucket := func(k int) uint64 {
		h := inline.memo.probeHasher()
		defer inline.memo.releaseProbe(h)
		return inline.memo.hashIns(state(inline.tt), []region.Region{mkInput(k)}, 15, h) & inline.memo.tht.mask
	}
	k := 2
	for bucket(k) != bucket(1) {
		k++
	}
	worker.run(1)
	inline.run(1)
	keys := []int{1, k, 1}
	worker.run(keys...)
	tasks, outs := inline.serveTasks(keys...)
	executed, ok := inline.memo.Serve(tasks, admitAll)
	if !ok || executed != 2 {
		t.Fatalf("Serve(1, %d, 1) = %d, %v; want 2 bodies run, the second 1 after %d replaced it", k, executed, ok, k)
	}
	checkDoubled(t, keys, outs)
	if ws, is := withoutPathDiffs(worker.memo.Stats()), withoutPathDiffs(inline.memo.Stats()); !reflect.DeepEqual(ws, is) {
		t.Errorf("Stats differ\nworker %+v\ninline %+v", ws, is)
	}
}
