package atm

import (
	"sync/atomic"
	"testing"

	"atm/internal/core"
	"atm/internal/region"
	"atm/internal/taskrt"
)

// BenchmarkEvictingHit measures the steady-state memoized hit (submit +
// hash + THT hit + output copy) with a THT budget enabled — the
// configuration a long-lived bounded service runs in. The budget
// comfortably holds the working set, so every task hits; what it
// isolates is the eviction machinery's hit-path tax, the admission
// sketch's increment per lookup. Allocs are gated at zero in BENCH_7.json
// with no slack — a budget must not cost the hit path its
// allocation-freedom.
func BenchmarkEvictingHit(b *testing.B) {
	const (
		nInputs = 64
		elems   = 1024
	)
	memo := core.New(core.Config{
		Mode:           core.ModeStatic,
		THTBudgetBytes: 1 << 20, // ~2x the 64-entry working set: resident, but budget-enforced
	})
	rt := taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo})
	defer rt.Close()
	// Misses are counted (not b.Fatal'd) in the body: it runs on a worker
	// goroutine, where Fatal would kill the worker and hang Wait instead
	// of failing the benchmark.
	var executed atomic.Int64
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "warm", Memoize: true, Run: func(task *taskrt.Task) {
		executed.Add(1)
		src, dst := task.Float64s(0), task.Float64s(1)
		for i := range src {
			dst[i] = src[i]*1.5 + 2
		}
	}})
	ins := make([]*region.Float64, nInputs)
	for v := range ins {
		in := region.NewFloat64(elems)
		for i := range in.Data {
			in.Data[i] = float64(v)*0.5 + float64(i)
		}
		ins[v] = in
		rt.Submit(tt, taskrt.In(in), taskrt.Out(region.NewFloat64(elems)))
	}
	rt.Wait()
	executed.Store(0)
	out := region.NewFloat64(elems)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Submit(tt, taskrt.In(ins[i%nInputs]), taskrt.Out(out))
		rt.Wait()
	}
	b.StopTimer()
	if n := executed.Load(); n != 0 {
		b.Fatalf("%d tasks executed instead of hitting the bounded THT", n)
	}
}

// BenchmarkBudgetChurn measures the table-side cost of one insert under
// sustained budget pressure: the table sits at its budget, so every
// insert of a fresh key runs the admission check, evicts one resident
// and publishes the newcomer (entries recycle through the table's pool,
// so the steady state allocates nothing). This is the worst-case write
// path a bounded service pays when its working set exceeds the budget.
// Gated in BENCH_7.json.
func BenchmarkBudgetChurn(b *testing.B) {
	const (
		resident = 64
		elems    = 128
	)
	entryBytes := int64(elems*8 + 24)
	tht := core.NewTHT(6, 16)
	tht.ConfigureBudget(resident * entryBytes)
	insert := func(key uint64) {
		e := tht.GetEntry()
		if len(e.Outs) == 0 {
			e.Outs = []region.Region{region.NewFloat64(elems)}
		}
		e.TypeID = 0
		e.Key = key * 0x9e3779b97f4a7c15
		e.Level = 15
		e.ProviderID = key
		tht.Insert(e)
	}
	for i := 0; i < resident; i++ {
		insert(uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		insert(uint64(resident + i))
	}
	b.StopTimer()
	if got := tht.MemoryBytes(); got > resident*entryBytes {
		b.Fatalf("MemoryBytes %d exceeded the %d-byte budget", got, resident*entryBytes)
	}
}
