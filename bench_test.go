// Package atm's root benchmark suite regenerates every table and figure of
// the paper's evaluation as testing.B benchmarks (DESIGN.md §4 maps each
// experiment to its bench target). The benches run at ScaleTest so the
// whole suite stays fast; `cmd/atmbench -scale bench` (or `-scale paper`)
// produces the full-size numbers recorded in EXPERIMENTS.md.
//
// Custom metrics reported:
//
//	speedup   — equation 2, baseline time / ATM time, same workload
//	reuse%    — fraction of memoized tasks
//	correct%  — final output correctness vs the baseline run
package atm

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"

	"atm/internal/apps"
	"atm/internal/core"
	"atm/internal/harness"
	"atm/internal/persist"
	"atm/internal/region"
	"atm/internal/sampling"
	"atm/internal/taskrt"
)

// benchApps lists the Table I benchmarks.
var benchApps = harness.Benchmarks()

// runPair measures one baseline + one ATM run and reports the paper's
// metrics.
func runPair(b *testing.B, name string, spec harness.ATMSpec, workers int) {
	b.Helper()
	f := harness.FactoryFor(name)
	var spSum, reuseSum, corrSum float64
	for i := 0; i < b.N; i++ {
		base := harness.RunOne(f, apps.ScaleTest, workers, harness.Baseline(), harness.RunOptions{})
		o := harness.RunOne(f, apps.ScaleTest, workers, spec, harness.RunOptions{})
		spSum += harness.Speedup(base, o)
		reuseSum += 100 * o.Reuse()
		corrSum += o.App.Correctness(base.App)
	}
	b.ReportMetric(spSum/float64(b.N), "speedup")
	b.ReportMetric(reuseSum/float64(b.N), "reuse%")
	b.ReportMetric(corrSum/float64(b.N), "correct%")
}

// BenchmarkTable1Inventory regenerates Table I's measured columns: task
// counts and task input sizes per benchmark.
func BenchmarkTable1Inventory(b *testing.B) {
	for _, name := range benchApps {
		b.Run(name, func(b *testing.B) {
			f := harness.FactoryFor(name)
			var tasks, bytes float64
			for i := 0; i < b.N; i++ {
				o := harness.RunOne(f, apps.ScaleTest, 4, harness.Dynamic(true), harness.RunOptions{Trace: true})
				var memoTasks int64
				for _, ts := range o.Stats.Types {
					memoTasks += ts.Tasks
				}
				tasks += float64(memoTasks)
				bytes += float64(o.App.MemoTaskInputBytes())
			}
			b.ReportMetric(tasks/float64(b.N), "memo-tasks")
			b.ReportMetric(bytes/float64(b.N), "input-bytes")
		})
	}
}

// BenchmarkTable3Memory regenerates Table III: ATM memory overhead
// relative to the application footprint.
func BenchmarkTable3Memory(b *testing.B) {
	for _, name := range benchApps {
		b.Run(name, func(b *testing.B) {
			f := harness.FactoryFor(name)
			var overhead float64
			for i := 0; i < b.N; i++ {
				o := harness.RunOne(f, apps.ScaleTest, 4, harness.Dynamic(true), harness.RunOptions{})
				overhead += 100 * float64(o.ATMMemory) / float64(o.App.FootprintBytes())
			}
			b.ReportMetric(overhead/float64(b.N), "overhead%")
		})
	}
}

// BenchmarkFig3Speedup regenerates Fig. 3's four ATM configurations per
// benchmark (the oracle bars are sweeps; see cmd/atmbench -experiment fig3).
func BenchmarkFig3Speedup(b *testing.B) {
	configs := []struct {
		label string
		spec  harness.ATMSpec
	}{
		{"StaticTHT", harness.Static(false)},
		{"DynamicTHT", harness.Dynamic(false)},
		{"StaticTHT+IKT", harness.Static(true)},
		{"DynamicTHT+IKT", harness.Dynamic(true)},
	}
	for _, name := range benchApps {
		for _, cfg := range configs {
			b.Run(name+"/"+cfg.label, func(b *testing.B) {
				runPair(b, name, cfg.spec, 4)
			})
		}
	}
}

// BenchmarkFig4Correctness reports the correctness metric of the static
// and dynamic configurations (Fig. 4 shares Fig. 3's runs; this target
// re-measures them standalone).
func BenchmarkFig4Correctness(b *testing.B) {
	for _, name := range benchApps {
		b.Run(name, func(b *testing.B) {
			runPair(b, name, harness.Dynamic(true), 4)
		})
	}
}

// BenchmarkFig5PSweep regenerates Fig. 5: correctness and reuse at fixed
// p levels (a representative subset of the 16 levels; atmbench sweeps all).
func BenchmarkFig5PSweep(b *testing.B) {
	for _, name := range benchApps {
		for _, level := range []int{0, 7, 12, 15} {
			b.Run(fmt.Sprintf("%s/level%02d", name, level), func(b *testing.B) {
				runPair(b, name, harness.Fixed(level, true), 4)
			})
		}
	}
}

// BenchmarkFig6Scalability regenerates Fig. 6: dynamic ATM speedup at
// growing core counts.
func BenchmarkFig6Scalability(b *testing.B) {
	for _, cores := range []int{1, 2, 4, 8} {
		for _, name := range benchApps {
			b.Run(fmt.Sprintf("%s/%dcores", name, cores), func(b *testing.B) {
				runPair(b, name, harness.Dynamic(true), cores)
			})
		}
	}
}

// BenchmarkFig7TraceOverhead measures a detail-traced Gauss-Seidel run
// (Fig. 7's instrument) against an untraced one.
func BenchmarkFig7TraceOverhead(b *testing.B) {
	f := harness.FactoryFor("GS")
	b.Run("traced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			harness.RunOne(f, apps.ScaleTest, 4, harness.Dynamic(true), harness.RunOptions{Detail: true})
		}
	})
	b.Run("untraced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			harness.RunOne(f, apps.ScaleTest, 4, harness.Dynamic(true), harness.RunOptions{})
		}
	})
}

// BenchmarkFig8CreationThroughput measures Blackscholes' ready-queue
// behavior with and without ATM (Fig. 8): the metric is tasks consumed per
// millisecond of wall time.
func BenchmarkFig8CreationThroughput(b *testing.B) {
	f := harness.FactoryFor("Blackscholes")
	for _, spec := range []harness.ATMSpec{harness.Baseline(), harness.Dynamic(true)} {
		b.Run(spec.Name(), func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				o := harness.RunOne(f, apps.ScaleTest, 4, spec, harness.RunOptions{Trace: true})
				rate += float64(o.Tracer.Created()) / (float64(o.Elapsed.Microseconds()) / 1000)
			}
			b.ReportMetric(rate/float64(b.N), "tasks/ms")
		})
	}
}

// BenchmarkFig9Reuse regenerates Fig. 9's headline number per benchmark:
// the reuse fraction and how early it is generated (normalized id of the
// first reuse-generating task).
func BenchmarkFig9Reuse(b *testing.B) {
	for _, name := range benchApps {
		b.Run(name, func(b *testing.B) {
			f := harness.FactoryFor(name)
			var reuse, firstID float64
			for i := 0; i < b.N; i++ {
				o := harness.RunOne(f, apps.ScaleTest, 4, harness.Dynamic(true), harness.RunOptions{Trace: true})
				reuse += 100 * o.Reuse()
				xs, _ := o.Tracer.CumulativeReuse()
				if len(xs) > 0 {
					firstID += xs[0]
				} else {
					firstID += 1
				}
			}
			b.ReportMetric(reuse/float64(b.N), "reuse%")
			b.ReportMetric(firstID/float64(b.N), "first-provider-id")
		})
	}
}

// --- microbenchmarks for ATM's critical paths ---

// BenchmarkHashKeyLevels measures hash-key computation cost across p
// levels on a 256 KiB float32 input (§III-B: "the hash key computation
// time depends linearly on the size of the data inputs").
func BenchmarkHashKeyLevels(b *testing.B) {
	for _, level := range []int{0, 5, 10, 13, 15} {
		b.Run(fmt.Sprintf("level%02d_p=%g", level, sampling.PFromLevel(level)), func(b *testing.B) {
			memo := core.New(core.Config{Mode: core.ModeFixed, FixedLevel: level})
			rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo})
			defer rt.Close()
			in := region.NewFloat32(64 * 1024)
			for i := range in.Data {
				in.Data[i] = float32(i)
			}
			out := region.NewFloat32(1)
			var captured *taskrt.Task
			tt := rt.RegisterType(taskrt.TypeConfig{Name: "t", Run: func(task *taskrt.Task) { captured = task }})
			rt.Submit(tt, taskrt.In(in), taskrt.Out(out))
			rt.Wait()
			b.SetBytes(int64(in.NumBytes()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				memo.HashKey(captured, level)
			}
		})
	}
}

// BenchmarkMemoizedVsExecuted compares the cost of a memoized task
// (hash + THT copy) with a full execution of the same task, the ratio
// behind all of Fig. 3's speedups.
func BenchmarkMemoizedVsExecuted(b *testing.B) {
	mkRT := func(spec harness.ATMSpec) (*taskrt.Runtime, *taskrt.TaskType, *region.Float64, *region.Float64) {
		var m taskrt.Memoizer
		if spec.Enabled {
			m = core.New(core.Config{Mode: spec.Mode})
		}
		rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: m})
		in := region.NewFloat64(8192)
		for i := range in.Data {
			in.Data[i] = float64(i)
		}
		out := region.NewFloat64(8192)
		tt := rt.RegisterType(taskrt.TypeConfig{Name: "t", Memoize: true, Run: func(task *taskrt.Task) {
			src, dst := task.Float64s(0), task.Float64s(1)
			for i := range src {
				v := src[i]
				dst[i] = v*v*0.25 + v*0.5 + 1
			}
		}})
		return rt, tt, in, out
	}
	b.Run("executed", func(b *testing.B) {
		rt, tt, in, out := mkRT(harness.Baseline())
		defer rt.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.Submit(tt, taskrt.In(in), taskrt.Out(out))
			rt.Wait()
		}
	})
	b.Run("memoized", func(b *testing.B) {
		rt, tt, in, out := mkRT(harness.Static(true))
		defer rt.Close()
		rt.Submit(tt, taskrt.In(in), taskrt.Out(out)) // warm the THT
		rt.Wait()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.Submit(tt, taskrt.In(in), taskrt.Out(out))
			rt.Wait()
		}
	})
}

// BenchmarkRuntimeSubmitWait measures raw task overhead without ATM (the
// task-creation throughput ceiling of Fig. 8's analysis).
func BenchmarkRuntimeSubmitWait(b *testing.B) {
	rt := taskrt.New(taskrt.Config{Workers: 4})
	defer rt.Close()
	r := region.NewFloat64(1)
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "noop", Run: func(*taskrt.Task) {}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Submit(tt, taskrt.InOut(r))
	}
	rt.Wait()
}

// BenchmarkSubmitBatch measures the master-side submission cost per task
// for 10k independent 1-access tasks — the Blackscholes block-loop shape,
// where every task is ready at submission — per-task Submit vs
// SubmitBatch (PERFORMANCE.md §Batched submission). The headline metric,
// master-ns/task, is the master OS thread's own CPU time (LockOSThread +
// RUSAGE_THREAD): exactly the carving, wiring, queue publication and
// worker-wakeup work the batching pipeline amortizes. Thread CPU time
// excludes both the blocked taskwait and the workers' execution, which
// wall-clock windows conflate with submission on machines with fewer
// cores than workers (ns/op, kept as the secondary metric, has that
// flaw). Both runtimes use the same fixed throttle window, sized so the
// window never gates the measured loop.
func BenchmarkSubmitBatch(b *testing.B) {
	const tasks = 10000
	mkRegions := func() []*region.Float64 {
		rs := make([]*region.Float64, tasks)
		for i := range rs {
			rs[i] = region.NewFloat64(1)
		}
		return rs
	}
	run := func(b *testing.B, submitAll func(rt *taskrt.Runtime, tt *taskrt.TaskType, rs []*region.Float64)) {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		rt := taskrt.New(taskrt.Config{Workers: 4, ThrottleWindow: 2 * tasks})
		defer rt.Close()
		rs := mkRegions()
		tt := rt.RegisterType(taskrt.TypeConfig{Name: "noop", Run: func(*taskrt.Task) {}})
		b.ResetTimer()
		cpu0, haveCPU := threadCPUNanos()
		for i := 0; i < b.N; i++ {
			submitAll(rt, tt, rs)
			rt.Wait()
		}
		// ns/task: end-to-end wall time per task. The bodies are noops,
		// so the whole iteration is submission-bound: this is what the
		// master's submission pattern costs the program. The per-task
		// mode pays a wake attempt per submission — parking churn that
		// stalls the pinned master — where a batch issues one wake per
		// 256 tasks.
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tasks), "ns/task")
		if cpu1, ok := threadCPUNanos(); haveCPU && ok {
			// master-cpu-ns/task: the master thread's own CPU time per
			// task (excludes worker execution and blocked waits).
			b.ReportMetric(float64(cpu1-cpu0)/float64(b.N*tasks), "master-cpu-ns/task")
		}
	}
	b.Run("pertask", func(b *testing.B) {
		run(b, func(rt *taskrt.Runtime, tt *taskrt.TaskType, rs []*region.Float64) {
			for j := 0; j < tasks; j++ {
				rt.Submit(tt, taskrt.Out(rs[j]))
			}
		})
	})
	b.Run("batched", func(b *testing.B) {
		var sb *taskrt.Batcher
		run(b, func(rt *taskrt.Runtime, tt *taskrt.TaskType, rs []*region.Float64) {
			if sb == nil {
				sb = rt.BatcherN(256)
			}
			for j := 0; j < tasks; j++ {
				sb.Add(tt, taskrt.Out(rs[j]))
			}
			sb.Flush()
		})
	})
}

// BenchmarkWarmStartHit measures the two costs a persisted snapshot
// adds to a run (docs/persistence.md): "restore" is decoding and
// restoring a 64-entry / ~1 MiB snapshot (what a warm start pays once,
// before the first task), and "hit" is the steady warm-hit latency —
// submit + THT hit + output copy + wait for a task whose entry came
// from the restored snapshot rather than from this process's own
// executions. Gated in BENCH_4.json so restore cost and warm-hit
// latency cannot silently regress.
func BenchmarkWarmStartHit(b *testing.B) {
	const (
		nInputs = 64
		elems   = 1024
	)
	cfg := core.Config{Mode: core.ModeStatic}
	newInput := func(v int) *region.Float64 {
		in := region.NewFloat64(elems)
		for i := range in.Data {
			in.Data[i] = float64(v)*0.5 + float64(i)
		}
		return in
	}
	body := func(task *taskrt.Task) {
		src, dst := task.Float64s(0), task.Float64s(1)
		for i := range src {
			dst[i] = src[i]*1.5 + 2
		}
	}
	buildSnapshot := func(b *testing.B) []byte {
		b.Helper()
		memo := core.New(cfg)
		rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo})
		tt := rt.RegisterType(taskrt.TypeConfig{Name: "warm", Memoize: true, Run: body})
		for v := 0; v < nInputs; v++ {
			rt.Submit(tt, taskrt.In(newInput(v)), taskrt.Out(region.NewFloat64(elems)))
		}
		rt.Wait()
		snap, err := memo.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		rt.Close()
		data, err := persist.MarshalChain(snap, nil)
		if err != nil {
			b.Fatal(err)
		}
		return data
	}

	b.Run("restore", func(b *testing.B) {
		data := buildSnapshot(b)
		b.SetBytes(int64(len(data)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			snap, _, err := persist.UnmarshalChain(data)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.Restore(cfg, snap); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("hit", func(b *testing.B) {
		snap, _, err := persist.UnmarshalChain(buildSnapshot(b))
		if err != nil {
			b.Fatal(err)
		}
		memo, err := core.Restore(cfg, snap)
		if err != nil {
			b.Fatal(err)
		}
		rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo})
		defer rt.Close()
		// Misses are counted (not b.Fatal'd) in the body: it runs on a
		// worker goroutine, where Fatal would kill the worker and hang
		// Wait instead of failing the benchmark.
		var missed atomic.Int64
		tt := rt.RegisterType(taskrt.TypeConfig{Name: "warm", Memoize: true, Run: func(task *taskrt.Task) {
			missed.Add(1)
			body(task)
		}})
		ins := make([]*region.Float64, nInputs)
		for v := range ins {
			ins[v] = newInput(v)
		}
		out := region.NewFloat64(elems)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.Submit(tt, taskrt.In(ins[i%nInputs]), taskrt.Out(out))
			rt.Wait()
		}
		b.StopTimer()
		if n := missed.Load(); n != 0 {
			b.Fatalf("%d warm tasks executed instead of hitting the restored THT", n)
		}
	})
}

// BenchmarkDeltaSave pins the incremental-save claim (docs/persistence.md):
// at a matched table size and matched per-iteration churn, extracting
// and encoding a delta must cost a small fraction of a whole-table
// snapshot, because it touches only the churn. The table is bounded
// (16 buckets x 16 entries, FIFO eviction) so its size is identical
// and stable under both sub-benchmarks regardless of b.N. Gated in
// BENCH_5.json — and deliberately codec-only (no file I/O), so the
// durability discipline (fsync-on-append) cannot skew the gate; the
// on-disk append cost lives in the ungated BenchmarkChainAppend.
func BenchmarkDeltaSave(b *testing.B) {
	const (
		elems = 1024 // 8 KiB per entry payload
		churn = 8    // fresh inserts per save
	)
	cfg := core.Config{Mode: core.ModeStatic, NBits: 4, M: 16}
	body := func(task *taskrt.Task) {
		src, dst := task.Float64s(0), task.Float64s(1)
		for i := range src {
			dst[i] = src[i]*1.5 + 2
		}
	}
	setup := func(b *testing.B) (*core.ATM, *taskrt.Runtime, func(n int)) {
		b.Helper()
		memo := core.New(cfg)
		memo.EnableDeltaTracking()
		rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo})
		tt := rt.RegisterType(taskrt.TypeConfig{Name: "churn", Memoize: true, Run: body})
		next := 0
		submit := func(n int) {
			for i := 0; i < n; i++ {
				in := region.NewFloat64(elems)
				for j := range in.Data {
					in.Data[j] = float64(next)*0.5 + float64(j)
				}
				next++
				rt.Submit(tt, taskrt.In(in), taskrt.Out(region.NewFloat64(elems)))
			}
			rt.Wait()
		}
		submit(512) // fill to FIFO steady state: table size is pinned at capacity
		if _, err := memo.SnapshotDelta(); err != nil {
			b.Fatal(err)
		}
		return memo, rt, submit
	}

	b.Run("full", func(b *testing.B) {
		memo, rt, submit := setup(b)
		defer rt.Close()
		var bytes int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			submit(churn) // churn generation is setup, not save cost
			b.StartTimer()
			snap, err := memo.Snapshot()
			if err != nil {
				b.Fatal(err)
			}
			data, err := persist.MarshalChain(snap, nil)
			if err != nil {
				b.Fatal(err)
			}
			bytes = int64(len(data))
		}
		b.ReportMetric(float64(bytes), "save-bytes")
	})
	b.Run("delta", func(b *testing.B) {
		memo, rt, submit := setup(b)
		defer rt.Close()
		var bytes int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			submit(churn) // churn generation is setup, not save cost
			b.StartTimer()
			d, err := memo.SnapshotDelta()
			if err != nil {
				b.Fatal(err)
			}
			data, err := persist.MarshalChain(nil, []*core.Delta{d})
			if err != nil {
				b.Fatal(err)
			}
			bytes = int64(len(data))
		}
		b.ReportMetric(float64(bytes), "save-bytes")
	})
}

// BenchmarkChainAppend measures the on-disk cost of appending one
// delta record to a chain file, synced (the durable default: record
// fsynced before the success return) and unsynced (SyncOff, the
// atmbench -nosync path). Ungated: the synced number is dominated by
// the device's fsync latency, which varies too much across CI runners
// to gate — the encode-only cost is what BENCH_5.json pins via
// BenchmarkDeltaSave.
func BenchmarkChainAppend(b *testing.B) {
	const (
		elems = 1024
		churn = 8
	)
	cfg := core.Config{Mode: core.ModeStatic, NBits: 4, M: 16}
	body := func(task *taskrt.Task) {
		src, dst := task.Float64s(0), task.Float64s(1)
		for i := range src {
			dst[i] = src[i]*1.5 + 2
		}
	}
	memo := core.New(cfg)
	memo.EnableDeltaTracking()
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo})
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "churn", Memoize: true, Run: body})
	base, err := memo.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < churn; i++ {
		in := region.NewFloat64(elems)
		for j := range in.Data {
			in.Data[j] = float64(i)*0.5 + float64(j)
		}
		rt.Submit(tt, taskrt.In(in), taskrt.Out(region.NewFloat64(elems)))
	}
	rt.Wait()
	delta, err := memo.SnapshotDelta()
	if err != nil {
		b.Fatal(err)
	}
	rt.Close()

	for _, bc := range []struct {
		name string
		sync persist.SyncPolicy
	}{{"synced", persist.SyncAlways}, {"nosync", persist.SyncOff}} {
		b.Run(bc.name, func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "chain.atmsnap")
			if err := persist.SaveChainSync(path, base, nil, bc.sync); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := persist.AppendDeltaSync(path, delta, bc.sync); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMergeSnapshots measures combining four 64-entry shard
// snapshots with overlapping key ranges into one warm-start snapshot —
// the per-sweep cost of the shard-merge workflow. Gated in
// BENCH_5.json.
func BenchmarkMergeSnapshots(b *testing.B) {
	const (
		shardCount = 4
		perShard   = 64
		elems      = 1024
	)
	body := func(task *taskrt.Task) {
		src, dst := task.Float64s(0), task.Float64s(1)
		for i := range src {
			dst[i] = src[i]*1.5 + 2
		}
	}
	cfg := core.Config{Mode: core.ModeStatic}
	shards := make([]*core.Snapshot, shardCount)
	for s := range shards {
		memo := core.New(cfg)
		rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo})
		tt := rt.RegisterType(taskrt.TypeConfig{Name: "churn", Memoize: true, Run: body})
		for v := 0; v < perShard; v++ {
			in := region.NewFloat64(elems)
			for j := range in.Data {
				// Half of each shard's inputs overlap its neighbor's.
				in.Data[j] = float64(s*perShard/2+v)*0.5 + float64(j)
			}
			rt.Submit(tt, taskrt.In(in), taskrt.Out(region.NewFloat64(elems)))
		}
		rt.Wait()
		snap, err := memo.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		rt.Close()
		shards[s] = snap
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := persist.MergeSnapshots(shards...); err != nil {
			b.Fatal(err)
		}
	}
}
