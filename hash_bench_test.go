package atm

import (
	"testing"

	"atm/internal/core"
	"atm/internal/region"
	"atm/internal/taskrt"
)

// BenchmarkBulkHash measures the full-input (p = 100%) key computation
// on a 256 KiB float64 region, through the real product path
// (core.HashKey → region.HashWords → the lookup3 block loop): the
// §III-B hash cost at its largest. Gated in BENCH_6.json.
func BenchmarkBulkHash(b *testing.B) {
	memo := core.New(core.Config{Mode: core.ModeFixed, FixedLevel: 15})
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo})
	defer rt.Close()
	in := region.NewFloat64(32 * 1024)
	for i := range in.Data {
		in.Data[i] = float64(i) * 1.00000001
	}
	out := region.NewFloat64(1)
	var captured *taskrt.Task
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "t", Memoize: true, Run: func(task *taskrt.Task) { captured = task }})
	rt.Submit(tt, taskrt.In(in), taskrt.Out(out))
	rt.Wait()
	b.SetBytes(int64(in.NumBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		memo.HashKey(captured, 15)
	}
}

// BenchmarkMemoizedHitHash re-measures the steady-state memoized hit
// path (hash + THT probe + output copy) on a 64 KiB input: the hit path
// must stay allocation-free. Gated (allocs, no slack) in BENCH_6.json.
func BenchmarkMemoizedHitHash(b *testing.B) {
	memo := core.New(core.Config{Mode: core.ModeStatic})
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo})
	defer rt.Close()
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
	rt.Submit(tt, taskrt.In(in), taskrt.Out(out)) // warm the THT
	rt.Wait()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Submit(tt, taskrt.In(in), taskrt.Out(out))
		rt.Wait()
	}
}
