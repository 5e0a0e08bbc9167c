package schedfuzz

import (
	"os"
	"path/filepath"

	"atm/internal/core"
	"atm/internal/failpoint"
	"atm/internal/persist"
	"atm/internal/region"
	"atm/internal/taskrt"
)

// The scenario corpus. Each scenario is shaped by the Ctx stream and run
// under the Ctx's seeded deterministic schedule; together they cover the
// mechanisms whose bugs are interleaving-dependent: dependence wiring
// (Submit's one-task batches and wider SubmitBatch ones, including the
// >32-predecessor spill and WAR fans), the master draining a full
// throttle window mid-submission, the IKT defer/CompleteExternal
// handshake, the delta insert-log partition racing quiesce points,
// persistence fault paths, and Reset epoch churn over recycled slabs.

// Corpus returns the standard scenario corpus.
func Corpus() []Scenario {
	return []Scenario{
		{Name: "submit-chains", Run: submitChains},
		{Name: "batch-diamonds", Run: batchDiamonds},
		{Name: "fanin-spill", Run: faninSpill},
		{Name: "throttle-drain", Run: throttleDrain},
		{Name: "ikt-dup", Run: iktDup},
		{Name: "delta-partition", Run: deltaPartition},
		{Name: "persist-faults", Run: persistFaults},
		{Name: "reset-epochs", Run: resetEpochs},
	}
}

// depOracle mirrors wire()'s RAW/WAW/WAR semantics over task IDs: for
// every submitted task it derives the predecessor set the runtime must
// enforce, and check() verifies the observed execution order respects
// every edge and ran every task exactly once.
type depOracle struct {
	lastWriter map[region.Region]uint64
	readers    map[region.Region][]uint64
	preds      map[uint64][]uint64
	ids        []uint64
}

func newDepOracle() *depOracle {
	return &depOracle{
		lastWriter: map[region.Region]uint64{},
		readers:    map[region.Region][]uint64{},
		preds:      map[uint64][]uint64{},
	}
}

// observe records one submitted task, in submission order (the same
// order wire sees).
func (o *depOracle) observe(id uint64, accs []taskrt.Access) {
	o.ids = append(o.ids, id)
	add := func(p uint64) {
		if p == id {
			return
		}
		o.preds[id] = append(o.preds[id], p)
	}
	for _, a := range accs {
		r := a.Region
		switch a.Mode {
		case taskrt.ModeIn:
			if lw, ok := o.lastWriter[r]; ok {
				add(lw) // RAW
			}
			o.readers[r] = append(o.readers[r], id)
		default: // ModeOut, ModeInOut
			if lw, ok := o.lastWriter[r]; ok {
				add(lw) // WAW (and RAW for inout)
			}
			for _, rd := range o.readers[r] {
				add(rd) // WAR
			}
			o.lastWriter[r] = id
			if a.Mode == taskrt.ModeInOut {
				o.readers[r] = []uint64{id}
			} else {
				delete(o.readers, r)
			}
		}
	}
}

// reset drops the dependence history (the oracle's Runtime.Reset).
func (o *depOracle) reset() {
	o.lastWriter = map[region.Region]uint64{}
	o.readers = map[region.Region][]uint64{}
}

// check verifies order against the recorded edges: every submitted task
// executed exactly once, and every predecessor executed before its
// successor.
func (o *depOracle) check(c *Ctx, order []uint64) {
	pos := make(map[uint64]int, len(order))
	for i, id := range order {
		if _, dup := pos[id]; dup {
			c.Errorf("task %d executed twice (positions %d and %d)", id, pos[id], i)
		}
		pos[id] = i
	}
	if len(order) != len(o.ids) {
		c.Errorf("executed %d tasks, submitted %d", len(order), len(o.ids))
	}
	for _, id := range o.ids {
		pi, ok := pos[id]
		if !ok {
			c.Errorf("task %d never executed", id)
			continue
		}
		for _, p := range o.preds[id] {
			pp, ok := pos[p]
			if !ok {
				continue // already reported as never-executed
			}
			if pp >= pi {
				c.Errorf("dependence order violated: task %d (pos %d) ran before predecessor %d (pos %d)", id, pi, p, pp)
			}
		}
	}
}

// checkDrained verifies the exactly-once completion counters after a
// barrier.
func checkDrained(c *Ctx, rt *taskrt.Runtime) {
	if s, d := rt.Submitted(), rt.Completed(); s != d {
		c.Errorf("after Wait: %d submitted, %d completed", s, d)
	}
}

// recorderType registers a task type whose body appends its task ID to
// *order (deterministic mode: bodies run on the master goroutine).
func recorderType(rt *taskrt.Runtime, name string, order *[]uint64) *taskrt.TaskType {
	return rt.RegisterType(taskrt.TypeConfig{Name: name, Run: func(t *taskrt.Task) {
		*order = append(*order, t.ID())
	}})
}

// randAccesses draws one task's accesses over regs: a read of one region
// and a write of another, an update, two reads, or a blind write.
func randAccesses(c *Ctx, regs []region.Region) []taskrt.Access {
	r1, r2 := regs[c.Intn(len(regs))], regs[c.Intn(len(regs))]
	switch c.Intn(4) {
	case 0:
		return []taskrt.Access{taskrt.In(r1), taskrt.Out(r2)}
	case 1:
		return []taskrt.Access{taskrt.InOut(r1)}
	case 2:
		return []taskrt.Access{taskrt.In(r1), taskrt.In(r2)}
	default:
		return []taskrt.Access{taskrt.Out(r1)}
	}
}

// submitChains fuzzes per-task Submit (a batch of one) over a small
// region pool: random RAW/WAW/WAR chains, occasional barriers,
// dependence order checked against the oracle.
func submitChains(c *Ctx) {
	rt := c.Runtime(taskrt.Config{})
	defer rt.Close()
	var order []uint64
	tt := recorderType(rt, "chain", &order)
	regs := make([]region.Region, 6)
	for i := range regs {
		regs[i] = region.NewFloat64(4)
	}
	o := newDepOracle()
	n := 100 + c.Intn(200)
	for i := 0; i < n; i++ {
		accs := randAccesses(c, regs)
		t := rt.Submit(tt, accs...)
		o.observe(t.ID(), accs)
		if c.Intn(32) == 0 {
			rt.Wait()
			checkDrained(c, rt)
		}
	}
	rt.Wait()
	checkDrained(c, rt)
	o.check(c, order)
}

// batchDiamonds fuzzes SubmitBatch's two-phase finalize with diamond
// graphs (one producer, a fan of parallel readers-then-writers, one
// reducer) split across batch boundaries so both intra-batch plain
// wiring and cross-batch guarded wiring are exercised under every
// schedule.
func batchDiamonds(c *Ctx) {
	rt := c.Runtime(taskrt.Config{})
	defer rt.Close()
	var order []uint64
	tt := recorderType(rt, "diamond", &order)
	o := newDepOracle()
	var batch []taskrt.BatchEntry
	add := func(accs ...taskrt.Access) {
		batch = append(batch, taskrt.Desc(tt, accs...))
	}
	flush := func() {
		if len(batch) == 0 {
			return
		}
		for _, t := range rt.SubmitBatch(batch) {
			o.observe(t.ID(), t.Accesses())
		}
		batch = batch[:0]
	}
	diamonds := 8 + c.Intn(16)
	for d := 0; d < diamonds; d++ {
		src := region.NewFloat64(4)
		sink := region.NewFloat64(4)
		width := 2 + c.Intn(4)
		add(taskrt.Out(src))
		mids := make([]region.Region, width)
		for i := range mids {
			mids[i] = region.NewFloat64(4)
			add(taskrt.In(src), taskrt.Out(mids[i]))
			// Random batch splits move the diamond's edges between the
			// intra-batch and cross-batch wiring paths.
			if c.Intn(4) == 0 {
				flush()
			}
		}
		accs := make([]taskrt.Access, 0, width+1)
		for _, m := range mids {
			accs = append(accs, taskrt.In(m))
		}
		accs = append(accs, taskrt.Out(sink))
		add(accs...)
		if c.Intn(3) == 0 {
			flush()
			if c.Intn(4) == 0 {
				rt.Wait()
				checkDrained(c, rt)
			}
		}
	}
	flush()
	rt.Wait()
	checkDrained(c, rt)
	o.check(c, order)
}

// faninSpill drives wire()'s predecessor-dedup spill (>32 distinct
// predecessors forces the map path) and a wide WAR fan (many readers,
// then one writer) under fuzzed schedules. Each fan-in is one batch:
// an intra-batch edge is recorded whether or not its writer could have
// run, so the reader wires all 40 and spills in every seed.
func faninSpill(c *Ctx) {
	rt := c.Runtime(taskrt.Config{})
	defer rt.Close()
	var order []uint64
	tt := recorderType(rt, "fanin", &order)
	o := newDepOracle()
	submit := func(accs ...taskrt.Access) {
		t := rt.Submit(tt, accs...)
		o.observe(t.ID(), accs)
	}
	rounds := 2 + c.Intn(3)
	for round := 0; round < rounds; round++ {
		// Fan-in: 40 writers to distinct regions, one reader of all 40.
		parts := make([]region.Region, 40)
		batch := make([]taskrt.BatchEntry, 0, len(parts)+1)
		accs := make([]taskrt.Access, 0, len(parts)+1)
		for i := range parts {
			parts[i] = region.NewFloat64(2)
			batch = append(batch, taskrt.Desc(tt, taskrt.Out(parts[i])))
			accs = append(accs, taskrt.In(parts[i]))
		}
		sum := region.NewFloat64(2)
		accs = append(accs, taskrt.Out(sum))
		batch = append(batch, taskrt.Desc(tt, accs...))
		for _, t := range rt.SubmitBatch(batch) {
			o.observe(t.ID(), t.Accesses())
		}
		// WAR fan: 40 readers of the sum, then a writer that must wait
		// for all of them.
		for i := 0; i < 40; i++ {
			submit(taskrt.In(sum))
		}
		submit(taskrt.InOut(sum))
		if c.Intn(2) == 0 {
			rt.Wait()
			checkDrained(c, rt)
		}
	}
	rt.Wait()
	checkDrained(c, rt)
	o.check(c, order)
}

// throttleDrain sizes its task graph past its own small throttle window
// (16–32 tasks), so the master finds the window full and runs ready
// tasks itself (drainBacklog) between batches. SubmitBatch throttles
// once per batch, so batches of up to 48 tasks push the in-flight count
// past the window at once. Dependences run across the batch boundaries
// the drain falls between; order is checked against the oracle.
func throttleDrain(c *Ctx) {
	rt := c.Runtime(taskrt.Config{ThrottleWindow: 16 + c.Intn(17)})
	defer rt.Close()
	var order []uint64
	tt := recorderType(rt, "drain", &order)
	regs := make([]region.Region, 8)
	for i := range regs {
		regs[i] = region.NewFloat64(4)
	}
	o := newDepOracle()
	var batch []taskrt.BatchEntry
	batches := 8 + c.Intn(8)
	for b := 0; b < batches; b++ {
		batch = batch[:0]
		for n := 16 + c.Intn(33); n > 0; n-- {
			batch = append(batch, taskrt.Desc(tt, randAccesses(c, regs)...))
		}
		for _, t := range rt.SubmitBatch(batch) {
			o.observe(t.ID(), t.Accesses())
		}
	}
	rt.Wait()
	checkDrained(c, rt)
	o.check(c, order)
}

// mkInput builds a deterministic 16-element input region keyed by v.
func mkInput(v int) *region.Float64 {
	in := region.NewFloat64(16)
	for i := range in.Data {
		in.Data[i] = float64(v*100+i) * 1.5
	}
	return in
}

// doubler is the scenarios' memoizable body: out[i] = 2*in[i].
func doubler(t *taskrt.Task) {
	in, out := t.Float64s(0), t.Float64s(1)
	for i := range in {
		out[i] = 2 * in[i]
	}
}

// iktDup fuzzes the IKT defer → CompleteExternal handshake: batches full
// of duplicate inputs under static ATM, where every duplicate either
// defers to an in-flight provider or hits the THT depending on the
// schedule. Invariants: every output is correct regardless of which path
// served it, the memoization accounting partitions the task count, and
// the run drains (a lost CompleteExternal would stall the executor,
// which panics with the seed).
func iktDup(c *Ctx) {
	memo := core.New(core.Config{Mode: core.ModeStatic})
	rt := c.Runtime(taskrt.Config{Memoizer: memo})
	defer rt.Close()
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: doubler})

	type pending struct {
		v   int
		out *region.Float64
	}
	var all []pending
	rounds := 4 + c.Intn(6)
	total := int64(0)
	for round := 0; round < rounds; round++ {
		var batch []taskrt.BatchEntry
		distinct := 2 + c.Intn(6)
		dups := 2 + c.Intn(3)
		for i := 0; i < distinct; i++ {
			v := round*100 + i
			in := mkInput(v)
			for d := 0; d < dups; d++ {
				out := region.NewFloat64(16)
				all = append(all, pending{v: v, out: out})
				batch = append(batch, taskrt.Desc(tt, taskrt.In(in), taskrt.Out(out)))
			}
		}
		total += int64(len(batch))
		rt.SubmitBatch(batch)
		if c.Intn(3) == 0 {
			rt.Wait()
			checkDrained(c, rt)
		}
	}
	rt.Wait()
	checkDrained(c, rt)

	for _, p := range all {
		want := mkInput(p.v)
		for i := range p.out.Data {
			if p.out.Data[i] != 2*want.Data[i] {
				c.Errorf("input %d: out[%d] = %v, want %v", p.v, i, p.out.Data[i], 2*want.Data[i])
				break
			}
		}
	}
	for _, ts := range memo.Stats().Types {
		if ts.Name != "double" {
			continue
		}
		if ts.Tasks != total {
			c.Errorf("ATM saw %d tasks, submitted %d", ts.Tasks, total)
		}
		if got := ts.Executed + ts.MemoizedTHT + ts.MemoizedIKT; got != ts.Tasks {
			c.Errorf("accounting does not partition: executed %d + tht %d + ikt %d = %d, tasks %d",
				ts.Executed, ts.MemoizedTHT, ts.MemoizedIKT, got, ts.Tasks)
		}
	}
}

// deltaPartition fuzzes the delta insert log against quiesce points:
// seeded SnapshotDelta saves interleave with batch traffic (including
// IKT duplicates), and the saves must partition the inserts exactly —
// every executed insert logged once, and the compacted chain rebuilding
// the exact live table. A chain file round-trip ties persist's ordinary
// path into the same schedule.
func deltaPartition(c *Ctx) {
	cfg := core.Config{Mode: core.ModeStatic}
	memo := core.New(cfg)
	memo.EnableDeltaTracking()
	rt := c.Runtime(taskrt.Config{Memoizer: memo})
	defer rt.Close()
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: doubler})

	// A save waits for no task, so each one here follows a fence of its
	// own: a deterministic Wait draws from the seed's stream at the next
	// submission, and these keep the scenario's recorded schedules.
	rt.Wait()
	base, err := memo.Snapshot()
	if err != nil {
		c.Errorf("base snapshot: %v", err)
		return
	}
	var deltas []*core.Delta
	saveDelta := func() {
		rt.Wait()
		d, err := memo.SnapshotDelta()
		if err != nil {
			c.Errorf("SnapshotDelta: %v", err)
			return
		}
		deltas = append(deltas, d)
	}
	rounds := 6 + c.Intn(8)
	for round := 0; round < rounds; round++ {
		var batch []taskrt.BatchEntry
		n := 4 + c.Intn(12)
		for i := 0; i < n; i++ {
			// Mostly fresh values with some duplicates for IKT traffic.
			v := round*50 + c.Intn(n)
			batch = append(batch, taskrt.Desc(tt, taskrt.In(mkInput(v)), taskrt.Out(region.NewFloat64(16))))
		}
		rt.SubmitBatch(batch)
		if c.Intn(2) == 0 {
			saveDelta() // mid-stream
		}
	}
	saveDelta() // drain the tail

	var executed, logged int64
	for _, ts := range memo.Stats().Types {
		executed += ts.Executed
	}
	for _, d := range deltas {
		logged += int64(len(d.Entries))
	}
	if logged != executed {
		c.Errorf("delta chain logged %d inserts, engine executed %d tasks", logged, executed)
	}

	full, err := memo.Snapshot()
	if err != nil {
		c.Errorf("full snapshot: %v", err)
		return
	}
	keySet := func(snap *core.Snapshot) map[uint64]int {
		keys := map[uint64]int{}
		for _, sec := range snap.Types {
			for _, e := range sec.Entries {
				keys[e.Key]++
			}
		}
		return keys
	}
	replayed, err := core.Restore(cfg, base)
	if err != nil {
		c.Errorf("restore base: %v", err)
		return
	}
	for i, d := range deltas {
		if err := replayed.ApplyDelta(d); err != nil {
			c.Errorf("apply delta %d: %v", i, err)
			return
		}
	}
	snap, err := replayed.Snapshot()
	if err != nil {
		c.Errorf("replayed snapshot: %v", err)
		return
	}
	want, got := keySet(full), keySet(snap)
	if len(want) != len(got) {
		c.Errorf("replayed chain holds %d distinct keys, live table %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			c.Errorf("key %#x: live count %d, replayed %d", k, n, got[k])
		}
	}

	// Chain file round-trip under the same seed (unfaulted persist path).
	path := filepath.Join(c.Dir, "chain.atm")
	if err := persist.SaveChain(path, base, deltas); err != nil {
		c.Errorf("SaveChain: %v", err)
		return
	}
	lb, ld, err := persist.LoadChain(path)
	if err != nil {
		c.Errorf("LoadChain: %v", err)
		return
	}
	compacted, err := persist.Compact(lb, ld...)
	if err != nil {
		c.Errorf("Compact: %v", err)
		return
	}
	if gotC := keySet(compacted); len(gotC) != len(want) {
		c.Errorf("compacted chain file holds %d distinct keys, live table %d", len(gotC), len(want))
	}
}

// persistFaults fuzzes the persistence error paths: seeded failpoint
// arming makes whole-table and chain saves and AppendDelta fail at the
// write, rename and append boundaries, and the invariants are (a) a
// failed save surfaces an error and leaves no *.tmp residue, (b) the
// chain stays loadable after a failed append, (c) once disarmed, saving
// and loading recover completely.
func persistFaults(c *Ctx) {
	memo := core.New(core.Config{Mode: core.ModeStatic})
	memo.EnableDeltaTracking()
	rt := c.Runtime(taskrt.Config{Memoizer: memo})
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: doubler})
	rt.Wait() // a fence before the save, as deltaPartition's, keeps the recorded schedules
	base, err := memo.Snapshot()
	if err != nil {
		c.Errorf("base snapshot: %v", err)
		rt.Close()
		return
	}
	for v := 0; v < 8; v++ {
		rt.Submit(tt, taskrt.In(mkInput(v)), taskrt.Out(region.NewFloat64(16)))
	}
	rt.Wait()
	delta, err := memo.SnapshotDelta()
	if err != nil {
		c.Errorf("delta: %v", err)
		rt.Close()
		return
	}
	full, err := memo.Snapshot()
	if err != nil {
		c.Errorf("full snapshot: %v", err)
		rt.Close()
		return
	}
	rt.Close()

	checkNoTmp := func(op string) {
		tmps, _ := filepath.Glob(filepath.Join(c.Dir, "*.tmp"))
		for _, f := range tmps {
			c.Errorf("%s left temp-file residue: %s", op, filepath.Base(f))
			os.Remove(f)
		}
	}
	// Seeded fault plan: each point fails with probability 1/3 per call,
	// drawn from the scenario stream so the fault schedule replays with
	// the seed.
	arm := func(name string) {
		failpoint.Enable(name, func() error {
			if c.Intn(3) == 0 {
				return failpoint.ErrInjected
			}
			return nil
		})
	}
	arm(persist.FailpointWrite)
	arm(persist.FailpointRename)
	arm(persist.FailpointAppend)

	snapPath := filepath.Join(c.Dir, "snap.atm")
	chainPath := filepath.Join(c.Dir, "chain.atm")
	chainSaved := false
	for i := 0; i < 16; i++ {
		if err := persist.SaveChain(snapPath, full, nil); err != nil {
			checkNoTmp("whole-table SaveChain")
		}
		if err := persist.SaveChain(chainPath, base, []*core.Delta{delta}); err == nil {
			chainSaved = true
		} else {
			checkNoTmp("SaveChain")
		}
		if chainSaved {
			// Appends fail before any byte lands; the chain must stay
			// loadable either way.
			_ = persist.AppendDelta(chainPath, delta)
			if _, _, err := persist.LoadChain(chainPath); err != nil {
				c.Errorf("chain unloadable after append attempt %d: %v", i, err)
			}
		}
	}
	failpoint.DisableAll()

	// Recovery: clean saves succeed and round-trip.
	if err := persist.SaveChain(snapPath, full, nil); err != nil {
		c.Errorf("recovery whole-table SaveChain: %v", err)
		return
	}
	if _, _, err := persist.LoadChain(snapPath); err != nil {
		c.Errorf("recovery whole-table LoadChain: %v", err)
	}
	if err := persist.SaveChain(chainPath, base, []*core.Delta{delta}); err != nil {
		c.Errorf("recovery SaveChain: %v", err)
		return
	}
	if err := persist.AppendDelta(chainPath, delta); err != nil {
		c.Errorf("recovery AppendDelta: %v", err)
	}
	if _, ld, err := persist.LoadChain(chainPath); err != nil {
		c.Errorf("recovery LoadChain: %v", err)
	} else if len(ld) != 2 {
		c.Errorf("recovered chain holds %d deltas, want 2", len(ld))
	}
	checkNoTmp("recovery")
}

// resetEpochs fuzzes Reset between waves: dependence history drops per
// epoch while regions and recycled slabs carry over, and the oracle is
// reset in lockstep. Exactly-once completion must hold across epochs.
func resetEpochs(c *Ctx) {
	rt := c.Runtime(taskrt.Config{})
	defer rt.Close()
	var order []uint64
	tt := recorderType(rt, "epoch", &order)
	regs := make([]region.Region, 4)
	for i := range regs {
		regs[i] = region.NewFloat64(4)
	}
	o := newDepOracle()
	epochs := 3 + c.Intn(4)
	for e := 0; e < epochs; e++ {
		n := 40 + c.Intn(80)
		for i := 0; i < n; i++ {
			r := regs[c.Intn(len(regs))]
			var accs []taskrt.Access
			if c.Intn(3) == 0 {
				accs = []taskrt.Access{taskrt.In(r)}
			} else {
				accs = []taskrt.Access{taskrt.InOut(r)}
			}
			t := rt.Submit(tt, accs...)
			o.observe(t.ID(), accs)
		}
		rt.Reset() // barrier + dependence-history drop
		o.reset()
		checkDrained(c, rt)
	}
	o.check(c, order)
}
