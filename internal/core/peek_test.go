package core

import (
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

// hitTasks builds a ServeHits request of one task per key; the outputs
// start at -1 everywhere so an untouched one is recognisable.
func (r *hitsRig) hitTasks(keys ...int) ([]HitTask, []*region.Float64) {
	tasks := make([]HitTask, len(keys))
	outs := make([]*region.Float64, len(keys))
	for i, k := range keys {
		outs[i] = region.NewFloat64(16)
		for j := range outs[i].Data {
			outs[i].Data[j] = -1
		}
		tasks[i] = HitTask{Type: r.tt, Ins: []region.Region{mkInput(k)}, Outs: []region.Region{outs[i]}}
	}
	return tasks, outs
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
			s.extraRefs += int(b.entries[(b.head+i)%len(b.entries)].refs.Load()) - 1
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

// TestServeHitsRecordsWhatWorkersRecord runs the same three warm tasks
// through a worker (OnReady) on one engine and through ServeHits on
// another: outputs, Stats and the table's eviction state must agree.
func TestServeHitsRecordsWhatWorkersRecord(t *testing.T) {
	for _, budget := range budgets {
		cfg := Config{Mode: ModeStatic, THTBudgetBytes: budget}
		worker, inline := newHitsRig(t, cfg), newHitsRig(t, cfg)
		worker.run(1, 2, 3)
		inline.run(1, 2, 3)

		worker.run(3, 1, 1, 2)
		tasks, outs := inline.hitTasks(3, 1, 1, 2)
		if !inline.memo.ServeHits(tasks) {
			t.Fatalf("budget %d: ServeHits refused four warm tasks", budget)
		}
		for i, k := range []int{3, 1, 1, 2} {
			for j, v := range mkInput(k).Data {
				if outs[i].Data[j] != 2*v {
					t.Fatalf("budget %d: task %d output[%d] = %v, want %v", budget, i, j, outs[i].Data[j], 2*v)
				}
			}
		}
		ws, is := worker.memo.Stats(), inline.memo.Stats()
		for i := range ws.Types { // time estimates are measurements, not counts
			ws.Types[i].HashTime, ws.Types[i].CopyTime = 0, 0
			is.Types[i].HashTime, is.Types[i].CopyTime = 0, 0
		}
		if !reflect.DeepEqual(ws, is) {
			t.Errorf("budget %d: Stats differ\nworker %+v\ninline %+v", budget, ws, is)
		}
		if w, i := worker.tableState(), inline.tableState(); w != i {
			t.Errorf("budget %d: table state differs: worker %+v, inline %+v", budget, w, i)
		}
		if got := inline.memo.Stats().Types[0]; got.HashTime <= 0 || got.CopyTime <= 0 {
			t.Errorf("budget %d: warm-up tasks left no time estimate: hash %v copy %v", budget, got.HashTime, got.CopyTime)
		}
	}
}

// TestServeHitsAbandonedLeavesNoTrace: one miss among hits and the call
// reports false having changed nothing — outputs, Stats, counters,
// sketch, entry references.
func TestServeHitsAbandonedLeavesNoTrace(t *testing.T) {
	for _, budget := range budgets {
		r := newHitsRig(t, Config{Mode: ModeStatic, THTBudgetBytes: budget})
		r.run(1, 2)
		before, stats := r.tableState(), r.memo.Stats()
		tasks, outs := r.hitTasks(1, 9, 2) // 9 was never run
		if r.memo.ServeHits(tasks) {
			t.Fatalf("budget %d: ServeHits served a request holding a miss", budget)
		}
		for i, o := range outs {
			for j, v := range o.Data {
				if v != -1 {
					t.Fatalf("budget %d: abandoned attempt wrote output %d[%d] = %v", budget, i, j, v)
				}
			}
		}
		if after := r.tableState(); after != before {
			t.Errorf("budget %d: abandoned attempt changed the table: %+v -> %+v", budget, before, after)
		}
		if after := r.memo.Stats(); !reflect.DeepEqual(after, stats) {
			t.Errorf("budget %d: abandoned attempt changed Stats:\n%+v\n%+v", budget, stats, after)
		}
	}
}

// TestServeHitsFallbacks: every reason ServeHits hands a request back,
// each with warm hits ahead of the offending task so that a partial
// commit would show.
func TestServeHitsFallbacks(t *testing.T) {
	refuses := func(t *testing.T, r *hitsRig, tasks []HitTask) {
		t.Helper()
		before, stats := r.tableState(), r.memo.Stats()
		if r.memo.ServeHits(tasks) {
			t.Fatal("ServeHits served the request")
		}
		if after := r.tableState(); after != before {
			t.Errorf("table changed: %+v -> %+v", before, after)
		}
		if after := r.memo.Stats(); !reflect.DeepEqual(after, stats) {
			t.Errorf("Stats changed:\n%+v\n%+v", stats, after)
		}
	}
	t.Run("not memoizable", func(t *testing.T) {
		r := newHitsRig(t, Config{Mode: ModeStatic})
		r.run(1)
		plain := r.rt.RegisterType(taskrt.TypeConfig{Name: "plain", Run: doubler})
		tasks, _ := r.hitTasks(1, 1)
		tasks[1].Type = plain
		refuses(t, r, tasks)
	})
	t.Run("training", func(t *testing.T) {
		r := newHitsRig(t, Config{Mode: ModeDynamic})
		r.run(1, 1, 1) // a handful of grades: far from LTraining
		if _, steady := r.memo.ChosenLevel(r.tt); steady {
			t.Fatal("type went steady after three tasks")
		}
		tasks, _ := r.hitTasks(1)
		refuses(t, r, tasks)
	})
	t.Run("exclusion set", func(t *testing.T) {
		r := newHitsRig(t, Config{Mode: ModeDynamic})
		r.run(1)
		ts := r.memo.state(r.tt)
		ts.phaseLevel.Store(packPhaseLevel(phaseSteady, 15))
		r.run(1) // steady now: inserted at level 15
		tasks, _ := r.hitTasks(1)
		if !r.memo.ServeHits(tasks) {
			t.Fatal("steady type without exclusions must be served")
		}
		ts.mu.Lock()
		ts.excluded[region.NewFloat64(1)] = true
		ts.mu.Unlock()
		ts.hasExcl.Store(true)
		refuses(t, r, tasks)
	})
	t.Run("VerifyInputs", func(t *testing.T) {
		r := newHitsRig(t, Config{Mode: ModeStatic, VerifyInputs: true})
		r.run(1)
		tasks, _ := r.hitTasks(1)
		refuses(t, r, tasks)
	})
	t.Run("tracer", func(t *testing.T) {
		memo := New(Config{Mode: ModeStatic})
		rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo, Tracer: trace.New(1, false)})
		defer rt.Close()
		r := &hitsRig{memo: memo, rt: rt}
		r.tt = rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: doubler})
		r.run(1)
		tasks, _ := r.hitTasks(1)
		refuses(t, r, tasks)
	})
	t.Run("output shape", func(t *testing.T) {
		r := newHitsRig(t, Config{Mode: ModeStatic})
		r.run(1)
		tasks, _ := r.hitTasks(1, 1)
		tasks[1].Outs = []region.Region{region.NewFloat64(8)}
		refuses(t, r, tasks)
	})
}

// TestWorkerTotalsLeaveOutServeHits: what ServeHits commits shows in
// Stats and not in WorkerTotals, so a diff of WorkerTotals around a
// fence is the runtime's own work.
func TestWorkerTotalsLeaveOutServeHits(t *testing.T) {
	r := newHitsRig(t, Config{Mode: ModeStatic})
	r.run(1, 2)
	before := r.memo.WorkerTotals()
	if want := (TaskTotals{Tasks: 2, Executed: 2}); before != want {
		t.Fatalf("WorkerTotals = %+v, want %+v", before, want)
	}
	tasks, _ := r.hitTasks(1, 2, 1)
	if !r.memo.ServeHits(tasks) {
		t.Fatal("ServeHits refused warm tasks")
	}
	if after := r.memo.WorkerTotals(); after != before {
		t.Errorf("ServeHits moved WorkerTotals: %+v -> %+v", before, after)
	}
	if st := r.memo.Stats().Types[0]; st.Tasks != 5 || st.MemoizedTHT != 3 || st.Executed != 2 {
		t.Errorf("Stats after three inline hits: %+v", st)
	}
}

// TestServeHitsAllocationFree: with the caller's []HitTask reused, a
// served request and an abandoned one both allocate nothing.
func TestServeHitsAllocationFree(t *testing.T) {
	r := newHitsRig(t, Config{Mode: ModeFixed, FixedLevel: 13})
	r.run(1, 2)
	hits, _ := r.hitTasks(1, 2, 1)
	miss, _ := r.hitTasks(1, 9)
	if !r.memo.ServeHits(hits) || r.memo.ServeHits(miss) {
		t.Fatal("warm-up calls did not behave")
	}
	if avg := testing.AllocsPerRun(200, func() { r.memo.ServeHits(hits) }); avg != 0 {
		t.Errorf("a served request allocates %.1f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { r.memo.ServeHits(miss) }); avg != 0 {
		t.Errorf("an abandoned request allocates %.1f/op, want 0", avg)
	}
}

// TestServeHitsRacesInsertEvict: eight goroutines serve hot keys inline
// while the runtime inserts and evicts — under a byte budget, or by ring
// replacement in a small unbudgeted table — with the delta log on and
// drained. An entry recycled while a reader held it
// would show as a wrong output (or a race report); afterwards every
// resident holds exactly the table's reference and the stats partition.
// Run with -race.
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
		var served atomic.Int64
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				keys := []int{hot[g%4], hot[(g+1)%4]}
				tasks, outs := r.hitTasks(keys...)
				for {
					select {
					case <-stop:
						return
					default:
					}
					if !r.memo.ServeHits(tasks) {
						continue // a hot key is evicted for the moment
					}
					served.Add(1)
					for i, k := range keys {
						for j, v := range mkInput(k).Data {
							if outs[i].Data[j] != 2*v {
								t.Errorf("budget %d: key %d output[%d] = %v, want %v", budget, k, j, outs[i].Data[j], 2*v)
								return
							}
						}
					}
				}
			}(g)
		}
		// Churn for 100 rounds, and on past them (up to a deadline) until
		// some goroutine has served inline, so every counted serve raced
		// the inserts and evictions.
		deadline := time.Now().Add(10 * time.Second)
		for round := 0; round < 100 || served.Load() == 0 && time.Now().Before(deadline); round++ {
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
		if served.Load() == 0 {
			t.Errorf("budget %d: no inline request was ever served", budget)
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
