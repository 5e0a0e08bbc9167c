package region

import "testing"

// TestAllConcreteTypesAreSlotted pins that every concrete region type
// starts with its own unclaimed DepSlot.
func TestAllConcreteTypesAreSlotted(t *testing.T) {
	for _, r := range []Region{NewFloat64(1), NewFloat32(1), NewInt32(1), NewBytes(1)} {
		if g := r.DepSlotHeader().DepGen(); g != 0 {
			t.Fatalf("%T: fresh region has a claimed slot (gen %d)", r, g)
		}
	}
}

// TestSlotStampAndClone checks the stamp round-trip and that Clone yields
// an unclaimed slot: a cloned region must not inherit the original's
// dependence state (clones are THT snapshots, never dependence-tracked
// under the original's identity).
func TestSlotStampAndClone(t *testing.T) {
	r := NewFloat64(4)
	state := &struct{ x int }{x: 7}
	r.DepSlotHeader().SetDepState(42, state)
	if g := r.DepGen(); g != 42 {
		t.Fatalf("DepGen = %d, want 42", g)
	}
	if st := r.DepState(); st != state {
		t.Fatalf("DepState did not round-trip")
	}
	c := r.Clone().(*Float64)
	if c.DepGen() != 0 || c.DepState() != nil {
		t.Fatalf("Clone inherited the slot stamp (gen %d)", c.DepGen())
	}
	// Wrapping a slice shares data but not dependence identity either.
	w := WrapFloat64(r.Data)
	if w.DepGen() != 0 {
		t.Fatalf("WrapFloat64 inherited a slot stamp")
	}
}
