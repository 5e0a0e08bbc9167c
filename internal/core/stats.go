package core

import (
	"time"

	"atm/internal/sampling"
	"atm/internal/taskrt"
)

// TypeStats is a snapshot of one task type's ATM activity.
type TypeStats struct {
	Name string
	// Tasks is the number of ready tasks of this type seen by ATM.
	Tasks int64
	// Executed counts tasks whose body actually ran (including every
	// training-phase task).
	Executed int64
	// MemoizedTHT counts tasks bypassed with outputs copied from the THT.
	MemoizedTHT int64
	// MemoizedIKT counts tasks deferred to an in-flight provider.
	MemoizedIKT int64
	// TrainingHits / TrainingFailures count graded training
	// approximations and those whose τ reached τmax.
	TrainingHits     int64
	TrainingFailures int64
	// Level is the current p level (p = 2^(Level-15)).
	Level int
	// P is the corresponding fraction of sampled input bytes.
	P float64
	// Steady reports whether the type finished training.
	Steady bool
	// HashTime and CopyTime aggregate ATM overheads on this type.
	// Past a per-worker warmup they are sampled measurements scaled to
	// the full task count, so treat them as estimates on long runs.
	HashTime time.Duration
	CopyTime time.Duration
}

// Reuse returns the fraction of tasks bypassed by ATM (the paper's "reuse"
// metric, §IV-C).
func (s TypeStats) Reuse() float64 {
	if s.Tasks == 0 {
		return 0
	}
	return float64(s.MemoizedTHT+s.MemoizedIKT) / float64(s.Tasks)
}

// Stats is a full ATM snapshot.
type Stats struct {
	Types []TypeStats
	// THTBytes is the table's payload memory (Table III numerator).
	THTBytes int64
	// THTEntries is the current entry count.
	THTEntries int64
	// THTLookups / THTHits / THTEvictions are table counters
	// (THTEvictions counts every displaced entry — ring replacements
	// and budget evictions alike).
	THTLookups, THTHits, THTEvictions int64
	// THTBudgetBytes is the configured memory budget (0 = unbounded).
	THTBudgetBytes int64
	// THTBudgetEvictions counts evictions forced by the budget (a subset
	// of THTEvictions); THTAdmissionRejects counts inserts rejected at
	// admission (frequency duels lost, or entries larger than the
	// budget).
	THTBudgetEvictions, THTAdmissionRejects int64
	// IKTInserts / IKTDefers / IKTRejected are in-flight table counters.
	IKTInserts, IKTDefers, IKTRejected int64
}

// TotalReuse returns the memoized fraction over all memoizable tasks.
func (s Stats) TotalReuse() float64 {
	var memo, tasks int64
	for _, t := range s.Types {
		memo += t.MemoizedTHT + t.MemoizedIKT
		tasks += t.Tasks
	}
	if tasks == 0 {
		return 0
	}
	return float64(memo) / float64(tasks)
}

// Stats snapshots the engine's counters, summing the per-worker shards.
func (a *ATM) Stats() Stats {
	var st Stats
	for _, ts := range *a.typeStates.Load() {
		t := TypeStats{Name: ts.name}
		for i := range ts.shards {
			sh := &ts.shards[i]
			t.Tasks += sh.tasks.Load()
			t.Executed += sh.executed.Load()
			t.MemoizedTHT += sh.memoTHT.Load()
			t.MemoizedIKT += sh.memoIKT.Load()
			t.TrainingHits += sh.trainHits.Load()
			t.TrainingFailures += sh.trainFailures.Load()
			t.HashTime += time.Duration(sh.hashNanos.Load())
			t.CopyTime += time.Duration(sh.copyNanos.Load())
		}
		ph, level := ts.load()
		t.Level = level
		t.P = sampling.PFromLevel(level)
		t.Steady = ph == phaseSteady
		st.Types = append(st.Types, t)
	}

	st.THTBytes = a.tht.MemoryBytes()
	st.THTEntries = a.tht.Entries()
	st.THTLookups, st.THTHits, st.THTEvictions = a.tht.Counters()
	st.THTBudgetBytes = a.tht.Budget()
	st.THTBudgetEvictions, st.THTAdmissionRejects = a.tht.BudgetCounters()
	if a.ikt != nil {
		st.IKTInserts, st.IKTDefers, st.IKTRejected = a.ikt.Counters()
	}
	return st
}

// ChosenLevel reports the current p level of a task type and whether its
// training has completed (the star markers of Fig. 5).
func (a *ATM) ChosenLevel(tt *taskrt.TaskType) (level int, steady bool) {
	ph, lv := state(tt).load()
	return lv, ph == phaseSteady
}

// MemoryBytes reports ATM's extra memory footprint (THT payload).
func (a *ATM) MemoryBytes() int64 { return a.tht.MemoryBytes() }
