// Quickstart: define a task type, mark it memoizable, and let ATM skip
// redundant executions.
//
// The workload prices the same handful of input blocks over and over — a
// caricature of the redundancy real programs exhibit (§I). Run it twice,
// with and without ATM, and compare.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"atm/internal/core"
	"atm/internal/persist"
	"atm/internal/region"
	"atm/internal/taskrt"
)

func main() {
	const (
		blocks   = 8    // distinct input blocks
		rounds   = 64   // times each block is processed
		elements = 4096 // floats per block
	)

	// Build the inputs: a few distinct blocks, reused many times.
	inputs := make([]*region.Float64, blocks)
	outputs := make([]*region.Float64, blocks)
	for b := range inputs {
		inputs[b] = region.NewFloat64(elements)
		outputs[b] = region.NewFloat64(elements)
		for i := range inputs[b].Data {
			inputs[b].Data[i] = float64(b+1) * float64(i%97)
		}
	}

	workload := func(memo *core.ATM) time.Duration {
		var m taskrt.Memoizer
		if memo != nil {
			m = memo
		}
		rt := taskrt.New(taskrt.Config{Workers: 4, Memoizer: m})
		heavy := rt.RegisterType(taskrt.TypeConfig{
			Name:    "heavy_transform",
			Memoize: true, // programmer marks the type suitable for ATM
			Run: func(t *taskrt.Task) {
				in, out := t.Float64s(0), t.Float64s(1)
				for i := range in {
					// An expensive, deterministic per-element kernel.
					out[i] = math.Sqrt(math.Exp(math.Sin(in[i])) + 1)
				}
			},
		})
		start := time.Now()
		// Submit whole rounds as batches: SubmitBatch wires the tasks'
		// dependences in one master-side pass and publishes the ready
		// ones with a single wake (per-task Submit works too, at a
		// higher per-task cost — see PERFORMANCE.md).
		batch := make([]taskrt.BatchEntry, 0, blocks)
		for r := 0; r < rounds; r++ {
			batch = batch[:0]
			for b := 0; b < blocks; b++ {
				batch = append(batch, taskrt.Desc(heavy, taskrt.In(inputs[b]), taskrt.Out(outputs[b])))
			}
			rt.SubmitBatch(batch)
		}
		rt.Wait()
		elapsed := time.Since(start)
		rt.Close()
		return elapsed
	}

	base := workload(nil)

	memo := core.New(core.Config{Mode: core.ModeStatic})
	withATM := workload(memo)

	stats := memo.Stats()
	fmt.Printf("baseline:   %v\n", base.Round(time.Microsecond))
	fmt.Printf("static ATM: %v  (%.1fx speedup)\n",
		withATM.Round(time.Microsecond), float64(base)/float64(withATM))
	for _, ts := range stats.Types {
		fmt.Printf("task type %q: %d tasks, %d executed, %d memoized from THT, %d in-flight reuses (%.0f%% reuse)\n",
			ts.Name, ts.Tasks, ts.Executed, ts.MemoizedTHT, ts.MemoizedIKT, 100*ts.Reuse())
	}
	fmt.Printf("THT memory: %.1f KiB in %d entries\n",
		float64(stats.THTBytes)/1024, stats.THTEntries)

	// Warm start: persist the engine's memoization state and restore it
	// into a fresh engine — what a new process would do — so the next
	// run skips even the first executions of each distinct block. The
	// snapshot is rejected (typed error) if the restoring config's
	// fingerprint differs; see docs/persistence.md.
	snapPath := filepath.Join(os.TempDir(), "quickstart.atmsnap")
	snap, err := memo.Snapshot()
	if err != nil {
		fmt.Println("snapshot:", err)
		return
	}
	if err := persist.SaveChain(snapPath, snap, nil); err != nil {
		fmt.Println("save:", err)
		return
	}
	loaded, _, err := persist.LoadChain(snapPath)
	if err != nil {
		fmt.Println("load:", err)
		return
	}
	restored, err := core.Restore(core.Config{Mode: core.ModeStatic}, loaded)
	if err != nil {
		fmt.Println("restore:", err)
		return
	}
	warm := workload(restored)
	ws := restored.Stats()
	fmt.Printf("warm start: %v  (%.1fx speedup; %.0f%% reuse from the first task, %d entries restored from %s)\n",
		warm.Round(time.Microsecond), float64(base)/float64(warm),
		100*ws.TotalReuse(), restored.RestoredEntries(), snapPath)

	// Incremental saves: a long-lived service does not rewrite the whole
	// table per save. With delta tracking enabled, SnapshotDelta extracts
	// only the churn since the previous save and AppendDelta adds it to a
	// chain file in O(delta) I/O; restore replays base + deltas (or use
	// `snapshotctl compact` to fold the chain back into one base). An
	// all-hit rerun appends a ~17-byte empty record — the saving is the
	// point (docs/persistence.md).
	chainPath := filepath.Join(os.TempDir(), "quickstart.atmchain")
	tracked, err := core.Restore(core.Config{Mode: core.ModeStatic}, loadedForChain(snapPath))
	if err != nil {
		fmt.Println("restore:", err)
		return
	}
	tracked.EnableDeltaTracking()
	chainBase, err := tracked.Snapshot() // the chain's base: the restored warm state
	if err != nil {
		fmt.Println("snapshot:", err)
		return
	}
	if err := persist.SaveChain(chainPath, chainBase, nil); err != nil {
		fmt.Println("save chain:", err)
		return
	}
	workload(tracked) // warm: nothing new to learn
	delta, err := tracked.SnapshotDelta()
	if err != nil {
		fmt.Println("delta:", err)
		return
	}
	if err := persist.AppendDelta(chainPath, delta); err != nil {
		fmt.Println("append:", err)
		return
	}
	types, _, entries := delta.Stats()
	var total int64
	if fi, err := os.Stat(chainPath); err == nil {
		total = fi.Size()
	}
	fmt.Printf("delta save: %d new types, %d new entries appended to %s (%d bytes total)\n",
		types, entries, chainPath, total)
}

// loadedForChain re-reads the whole-table snapshot for the chain demo
// (each Restore consumes its snapshot).
func loadedForChain(path string) *core.Snapshot {
	s, _, err := persist.LoadChain(path)
	if err != nil {
		panic(err)
	}
	return s
}
