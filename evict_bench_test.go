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
// sustained budget pressure: the table sits at its budget of 64 entries
// and every iteration offers a fresh key. Gated in BENCH_7.json.
//
//   - evicting: the residents are cold, so every insert runs the
//     admission check, evicts one resident and publishes the newcomer
//     (entries recycle through the table's pool, so the steady state
//     allocates nothing). The worst-case write path a bounded service
//     pays when its working set exceeds the budget.
//   - rejected: every resident has been looked up, so the fresh key
//     loses the admission duel. The question is asked before any entry
//     exists (THT.Admit, as the engine asks it for a finished task), so
//     a rejected task builds no entry, copies nothing and allocates
//     nothing.
func BenchmarkBudgetChurn(b *testing.B) {
	const (
		resident = 64
		elems    = 128
	)
	entryBytes := int64(elems*8 + 24)
	fill := func(hot bool) *core.THT {
		tht := core.NewTHT(6, 16)
		tht.ConfigureBudget(resident * entryBytes)
		for i := 0; i < resident; i++ {
			insertFresh(tht, uint64(i), elems)
			if hot {
				tht.Lookup(0, mixKey(uint64(i)), 15).Release()
			}
		}
		return tht
	}
	b.Run("evicting", func(b *testing.B) {
		tht := fill(false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			insertFresh(tht, uint64(resident+i), elems)
		}
		b.StopTimer()
		if got := tht.MemoryBytes(); got > resident*entryBytes {
			b.Fatalf("MemoryBytes %d exceeded the %d-byte budget", got, resident*entryBytes)
		}
	})
	b.Run("rejected", func(b *testing.B) {
		tht := fill(true)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if tht.Admit(mixKey(uint64(resident+i)), entryBytes) {
				b.Fatal("a fresh key won the admission duel against hot residents")
			}
		}
		b.StopTimer()
		if _, rejects := tht.BudgetCounters(); rejects != int64(b.N) {
			b.Fatalf("%d admission rejects, want %d", rejects, b.N)
		}
	})
}

// mixKey spreads a small counter over the hash-key space.
func mixKey(i uint64) uint64 { return i * 0x9e3779b97f4a7c15 }

// insertFresh inserts a level-15 entry of type 0 under mixKey(i),
// provided by i, holding elems float64s from the table's pool.
func insertFresh(tht *core.THT, i uint64, elems int) {
	e := tht.GetEntry()
	if len(e.Outs) == 0 {
		e.Outs = []region.Region{region.NewFloat64(elems)}
	}
	e.TypeID = 0
	e.Key = mixKey(i)
	e.Level = 15
	e.ProviderID = i
	tht.Insert(e)
}

// BenchmarkTHTProbe measures one counted THT lookup at the occupancy
// serve_zipf_evict's 4 MiB budget settles at: 16384 entries in the
// paper's 256 buckets of up to 128, 64 to a bucket. hit looks up
// resident keys in turn, at every age within their buckets; miss looks
// up absent keys, each of which scans its whole bucket. The probe
// compares the keys its ring slots hold and reads an entry only on a
// key match, so a miss touches no entry. Both are gated at 0
// allocations in BENCH_7.json.
func BenchmarkTHTProbe(b *testing.B) {
	const entries = 16384
	tht := core.NewTHT(8, 128)
	for i := uint64(0); i < entries; i++ {
		insertFresh(tht, i, 16)
	}
	if n := tht.Entries(); n != entries {
		b.Fatalf("%d entries resident, want %d", n, entries)
	}
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := tht.Lookup(0, mixKey(uint64(i)%entries), 15)
			if e == nil {
				b.Fatal("resident key missed")
			}
			e.Release()
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if tht.Lookup(0, mixKey(entries+uint64(i)), 15) != nil {
				b.Fatal("absent key hit")
			}
		}
	})
}
