package taskrt

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"atm/internal/region"
)

// submitGatedChain submits two writer tasks of the same region where the
// first blocks until released. If the WAW edge between them is wired, the
// second cannot run before the first; the recorded order proves it.
func submitGatedChain(t *testing.T, rt *Runtime, r region.Region) {
	t.Helper()
	gate := make(chan struct{})
	var order [2]int32
	var seq atomic.Int32
	w1 := rt.RegisterType(TypeConfig{Name: "w1", Run: func(*Task) {
		<-gate
		order[seq.Add(1)-1] = 1
	}})
	w2 := rt.RegisterType(TypeConfig{Name: "w2", Run: func(*Task) {
		order[seq.Add(1)-1] = 2
	}})
	rt.Submit(w1, InOut(r))
	rt.Submit(w2, InOut(r))
	close(gate)
	rt.Wait()
	if order != [2]int32{1, 2} {
		t.Fatalf("WAW chain ran out of order: %v (dependence edge lost)", order)
	}
}

// TestSlotSteadyStateNoMapEntries pins where dependence state lives: in
// the regions' own DepSlots, one live-slot list entry per region.
func TestSlotSteadyStateNoMapEntries(t *testing.T) {
	rt := New(Config{Workers: 2})
	defer rt.Close()
	tt := rt.RegisterType(TypeConfig{Name: "noop", Run: func(*Task) {}})
	regions := make([]*region.Float64, 32)
	for i := range regions {
		regions[i] = region.NewFloat64(1)
	}
	for round := 0; round < 8; round++ {
		for _, r := range regions {
			rt.Submit(tt, InOut(r))
		}
		rt.Wait()
	}
	if len(rt.slotStates) != len(regions) {
		t.Fatalf("live-slot list has %d entries, want %d", len(rt.slotStates), len(regions))
	}
	for i, r := range regions {
		if r.DepGen() != rt.gen {
			t.Fatalf("region %d slot generation %d, want runtime generation %d", i, r.DepGen(), rt.gen)
		}
	}
}

// TestSlotReuseAcrossRuntimes reuses one region in two sequential
// runtimes: the second must reclaim the slot (the first runtime's
// generation is retired by Close) and wire dependences correctly.
func TestSlotReuseAcrossRuntimes(t *testing.T) {
	r := region.NewFloat64(1)

	rt1 := New(Config{Workers: 2})
	submitGatedChain(t, rt1, r)
	gen1 := rt1.gen
	rt1.Close()
	if r.DepGen() != gen1 {
		t.Fatalf("slot generation %d after close, want %d (Close must not unstamp)", r.DepGen(), gen1)
	}

	rt2 := New(Config{Workers: 2})
	defer rt2.Close()
	submitGatedChain(t, rt2, r)
	if r.DepGen() != rt2.gen {
		t.Fatalf("slot generation %d, want reclaimed by second runtime (%d)", r.DepGen(), rt2.gen)
	}
}

// TestSlotHeldByLiveRuntimePanics shares a region between two live
// runtimes: the second must panic with a message naming both
// generations, and leave the first one's slot stamp alone. Once the
// first runtime closes, its stamp is stale and a new runtime reclaims
// the slot.
func TestSlotHeldByLiveRuntimePanics(t *testing.T) {
	r := region.NewFloat64(1)
	rt1 := New(Config{Workers: 1})
	tt1 := rt1.RegisterType(TypeConfig{Name: "n1", Run: func(*Task) {}})
	rt1.Submit(tt1, InOut(r))
	rt1.Wait()

	// The panicking Submit leaves a carved task that never completes, so
	// the second runtime is a deterministic one (no worker goroutines to
	// leak) and is never closed.
	rt2 := New(Config{Deterministic: true})
	tt2 := rt2.RegisterType(TypeConfig{Name: "n2", Run: func(*Task) {}})
	func() {
		defer func() {
			s, _ := recover().(string)
			for _, want := range []string{
				fmt.Sprintf("generation %d", rt1.gen), fmt.Sprintf("generation %d", rt2.gen), "Close the other runtime",
			} {
				if !strings.Contains(s, want) {
					t.Fatalf("panic %q does not mention %q", s, want)
				}
			}
		}()
		rt2.Submit(tt2, InOut(r))
	}()
	if r.DepGen() != rt1.gen {
		t.Fatalf("second runtime stole a live runtime's slot (gen %d, want %d)", r.DepGen(), rt1.gen)
	}

	rt1.Close()
	rt3 := New(Config{Workers: 2})
	defer rt3.Close()
	submitGatedChain(t, rt3, r)
	if r.DepGen() != rt3.gen {
		t.Fatalf("slot not reclaimed after the first runtime closed: gen %d, want %d", r.DepGen(), rt3.gen)
	}
}

// TestResetMidStream interleaves Reset with submission waves on the same
// region: each epoch must wire correctly, and Reset must drop every
// registry reference (live-slot list, lastReg cache) and invalidate the
// slots by generation.
func TestResetMidStream(t *testing.T) {
	rt := New(Config{Workers: 2})
	defer rt.Close()
	slotted := region.NewFloat64(1)
	var ran atomic.Int64
	tt := rt.RegisterType(TypeConfig{Name: "inc", Run: func(*Task) { ran.Add(1) }})

	gens := make(map[uint64]bool)
	for epoch := 0; epoch < 3; epoch++ {
		for i := 0; i < 10; i++ {
			rt.Submit(tt, InOut(slotted))
			rt.Submit(tt, In(slotted))
		}
		if slotted.DepGen() != rt.gen {
			t.Fatalf("epoch %d: slot generation %d, want %d", epoch, slotted.DepGen(), rt.gen)
		}
		if gens[rt.gen] {
			t.Fatalf("epoch %d: generation %d reused across Reset", epoch, rt.gen)
		}
		gens[rt.gen] = true
		rt.Reset()
		if len(rt.slotStates) != 0 {
			t.Fatalf("epoch %d: Reset left %d slot states", epoch, len(rt.slotStates))
		}
		if rt.lastReg != nil || rt.lastRS != nil {
			t.Fatalf("epoch %d: Reset left the lastReg cache populated", epoch)
		}
		if genLive(slotted.DepGen()) {
			t.Fatalf("epoch %d: pre-Reset generation %d still live", epoch, slotted.DepGen())
		}
	}
	if got := ran.Load(); got != 60 {
		t.Fatalf("ran %d tasks, want 60", got)
	}
	// Post-Reset reuse still wires dependences.
	submitGatedChain(t, rt, slotted)
}
