package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"atm/internal/region"
	"atm/internal/taskrt"
)

// TestDeltaSnapshotRacesSubmitBatchTraffic stresses the incremental
// save path against live traffic (run it under -race): a background
// goroutine takes periodic SnapshotDelta saves — every third one a full
// snapshot, which restarts the chain as a rewriting save does — while
// the master keeps submitting batches whose intra-batch duplicates
// exercise the IKT defer → CompleteExternal path. No save waits for the
// runtime: the per-bucket log cut of a full snapshot and the per-bucket
// swap of a delta's drain alone must keep the chain self-consistent:
// every insert is recorded exactly once (in the last full snapshot or a
// delta after it), and replaying the chain rebuilds the exact table the
// live engine ended with.
func TestDeltaSnapshotRacesSubmitBatchTraffic(t *testing.T) {
	const (
		rounds    = 40
		batchSize = 32
		saveEvery = 100 * time.Microsecond
		minFulls  = 20 // full snapshots that must race the traffic
	)
	cfg := Config{Mode: ModeStatic, NBits: 10} // room for every key: no bucket overflows
	memo := New(cfg)
	memo.EnableDeltaTracking()
	rt := taskrt.New(taskrt.Config{Workers: 4, Memoizer: memo})
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: doubler})

	base, err := memo.Snapshot() // empty chain base, before any traffic
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu     sync.Mutex
		deltas []*Delta
	)
	done := make(chan struct{})
	var wg sync.WaitGroup
	saves := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			case <-time.After(saveEvery):
			}
			mu.Lock()
			saves++
			full := saves%3 == 0
			mu.Unlock()
			if full {
				// Inserts racing the scan must land in the snapshot or
				// stay logged for the next delta.
				full, err := memo.Snapshot()
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				base, deltas = full, nil
				mu.Unlock()
				continue
			}
			d, err := memo.SnapshotDelta()
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			deltas = append(deltas, d)
			mu.Unlock()
		}
	}()

	// A second task type appears only midway through the run, so its
	// very first inserts race the background saver — the stale-names
	// window where SnapshotDelta must not drop freshly-registered
	// types' logged entries.
	var late *taskrt.TaskType
	fulls := func() int {
		mu.Lock()
		defer mu.Unlock()
		return saves / 3
	}
	for round := 0; round < rounds || (fulls() < minFulls && round < 50*rounds); round++ {
		if round == rounds/2 {
			late = rt.RegisterType(taskrt.TypeConfig{Name: "late", Memoize: true, Run: doubler})
		}
		batch := make([]taskrt.BatchEntry, 0, batchSize+1)
		for i := 0; i < batchSize; i++ {
			// Each fresh value appears twice per batch, so the duplicate
			// either defers through the IKT (completing via
			// CompleteExternal) or hits the THT — both while saves race.
			v := round*batchSize/2 + i%(batchSize/2)
			batch = append(batch, taskrt.Desc(tt, taskrt.In(mkInput(v)), taskrt.Out(region.NewFloat64(16))))
		}
		if late != nil {
			batch = append(batch, taskrt.Desc(late, taskrt.In(mkInput(100000+round)), taskrt.Out(region.NewFloat64(16))))
		}
		rt.SubmitBatch(batch)
		if round%8 == 0 {
			rt.Wait()
		}
	}
	rt.Wait()
	close(done)
	wg.Wait()

	final, err := memo.SnapshotDelta() // drain whatever the racing saves missed
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	deltas = append(deltas, final)
	mu.Unlock()

	// Every insert must be recorded exactly once across the save
	// partition: in static mode each executed task inserts one entry, and
	// the workload never evicts.
	var executed, logged int64
	for _, ts := range memo.Stats().Types {
		executed += ts.Executed
	}
	for _, sec := range base.Types {
		logged += int64(len(sec.Entries))
	}
	for _, d := range deltas {
		logged += int64(len(d.Entries))
	}
	if logged != executed {
		t.Fatalf("delta chain logged %d inserts, engine executed %d tasks", logged, executed)
	}

	// Compacting the chain must rebuild the live table exactly: same
	// key set (the workload never overflows a bucket, so no evictions).
	full, err := memo.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rt.Close()
	keySet := func(snap *Snapshot) map[uint64]int {
		keys := map[uint64]int{}
		for _, sec := range snap.Types {
			for _, e := range sec.Entries {
				keys[e.Key]++
			}
		}
		return keys
	}
	chained, err := Restore(cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range deltas {
		if err := chained.ApplyDelta(d); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
	}
	replayed, err := chained.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want, got := keySet(full), keySet(replayed)
	if len(want) != len(got) {
		t.Fatalf("replayed chain holds %d distinct keys, live table %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("key %#x: live count %d, replayed %d", k, n, got[k])
		}
	}

	// And the replayed engine serves every input the live run learned.
	rt2 := taskrt.New(taskrt.Config{Workers: 2, Memoizer: chained})
	defer rt2.Close()
	executedWarm := 0
	tt2 := rt2.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: func(task *taskrt.Task) {
		executedWarm++
		doubler(task)
	}})
	for v := 0; v < rounds*batchSize/2; v++ {
		rt2.Submit(tt2, taskrt.In(mkInput(v)), taskrt.Out(region.NewFloat64(16)))
	}
	rt2.Wait()
	if executedWarm != 0 {
		t.Fatalf("warm replay executed %d bodies instead of serving restored hits", executedWarm)
	}
}

// TestSaveDoesNotWaitForRunningTasks pins that a save is not a fence:
// while a task's body is blocked on a worker, SnapshotDelta and Snapshot
// return from another goroutine, without the running task's insert, and
// that insert ships in the next delta once the task finishes.
func TestSaveDoesNotWaitForRunningTasks(t *testing.T) {
	memo := New(Config{Mode: ModeStatic})
	memo.EnableDeltaTracking()
	rt := taskrt.New(taskrt.Config{Workers: 2, Memoizer: memo})
	defer rt.Close()
	started, release := make(chan struct{}), make(chan struct{})
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "blocked", Memoize: true, Run: func(task *taskrt.Task) {
		close(started)
		<-release
		doubler(task)
	}})
	rt.Submit(tt, taskrt.In(mkInput(1)), taskrt.Out(region.NewFloat64(16)))
	<-started
	var released sync.Once
	defer released.Do(func() { close(release) }) // a failed check must not leave the body blocked

	saved := make(chan error, 1)
	go func() {
		d, err := memo.SnapshotDelta()
		if err == nil && len(d.Entries) != 0 {
			err = fmt.Errorf("delta taken while the task ran holds %d operations", len(d.Entries))
		}
		if err == nil {
			var snap *Snapshot
			if snap, err = memo.Snapshot(); err == nil && len(snap.Types) != 1 {
				err = fmt.Errorf("snapshot holds %d sections, want the registered type's", len(snap.Types))
			} else if err == nil && len(snap.Types[0].Entries) != 0 {
				err = fmt.Errorf("snapshot taken while the task ran holds %d entries", len(snap.Types[0].Entries))
			}
		}
		saved <- err
	}()
	select {
	case err := <-saved:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a save waited for a running task")
	}

	released.Do(func() { close(release) })
	rt.Wait()
	d, err := memo.SnapshotDelta()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Entries) != 1 || d.Entries[0].Tombstone || d.Types[d.Entries[0].Type].Name != "blocked" {
		t.Fatalf("the finished task's insert did not ship in the next delta: %+v", d.Entries)
	}
}
