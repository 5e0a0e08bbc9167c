package region

// DepSlot is an embeddable dependence-state header. The task runtime
// tracks dependences per region; with a slot embedded in every region,
// the runtime reaches a region's dependence state with one pointer load
// and a generation compare instead of a map probe — the
// registry-elimination half of the submission-cost budget (the ATM paper
// requires the runtime overhead of memoization to stay far below task
// execution cost for its speedups to exist).
//
// The zero value is an unclaimed slot. A runtime claims it by stamping
// its own generation (a process-unique id assigned per runtime instance
// and re-assigned on reset) next to an opaque state pointer; a slot whose
// generation belongs to a closed runtime or a pre-reset epoch is treated
// as unclaimed, so regions can be reused across runtimes (sequentially)
// without carrying stale dependence state over. The slot is plain memory
// owned by the claiming runtime's master thread: a region must not be
// submitted to two live runtimes (the runtime panics on a slot stamped by
// another live runtime — close that runtime first).
//
// Region requires DepSlotHeader, and every concrete region type of this
// package embeds DepSlot to provide it. A Region implementation outside
// this package embeds DepSlot the same way.
type DepSlot struct {
	gen   uint64
	state any
}

// DepSlotHeader returns the slot itself; embedding DepSlot in a region
// type is what provides Region's DepSlotHeader.
func (s *DepSlot) DepSlotHeader() *DepSlot { return s }

// DepGen returns the stamped generation (0 = unclaimed).
func (s *DepSlot) DepGen() uint64 { return s.gen }

// DepState returns the opaque state stored by the claiming runtime.
func (s *DepSlot) DepState() any { return s.state }

// SetDepState stamps the slot with a generation and its state. Only the
// claiming runtime's master thread may call it.
func (s *DepSlot) SetDepState(gen uint64, state any) {
	s.gen, s.state = gen, state
}
