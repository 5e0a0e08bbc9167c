package taskrt

import "sync"

// This file implements the runtime's work-stealing scheduler.
//
// Ready tasks live in two kinds of queues:
//
//   - Per-worker deques (Runtime.locals): a worker that readies a task by
//     completing its last predecessor pushes it onto its own deque and, on
//     its next scheduling decision, pops from the same end the policy
//     dictates (LIFO pops the newest for locality and short reuse
//     distances, FIFO the oldest). Thieves always steal the oldest task,
//     so owner and thieves contend on opposite ends of the deque.
//
//   - A sharded injector (Runtime.inj): tasks readied by the master thread
//     (SubmitBatch) or by external completions (CompleteExternal)
//     round-robin across the shards; workers drain the shards when their
//     own deque is empty, before resorting to stealing. With a single
//     worker the injector collapses to one shard so the global FIFO/LIFO
//     submission order of the old centralized queue is preserved exactly.
//     SubmitBatch publishes each batch's initially-ready tasks as block
//     pushes — one lock acquisition per stripe instead of one per task.
//
// Victim selection is flat: a thief probes every other worker's deque
// once, in index order, starting at a per-worker pseudorandom position so
// thieves do not probe victims in lockstep — the convoy that a fixed
// round-robin order produces when many workers go idle at once.
//
// Idle workers park on a condition variable. Producers hand out wake
// tokens only when the parked-worker count is nonzero, so the busy steady
// state pays a single atomic load per push; multi-task events (batch
// publication, wide fan-out completions) issue one wake of min(n, parked)
// rather than n independent signals. The park protocol (advertise parked,
// rescan every queue, then sleep) makes lost wakeups impossible: a
// producer that observes parked == 0 pushed its task before the worker
// advertised, so the worker's rescan finds it.

// taskRing is a growable ring buffer of tasks (oldest at head).
type taskRing struct {
	buf  []*Task
	head int
	n    int
}

func (r *taskRing) grow() {
	c := len(r.buf) * 2
	if c == 0 {
		c = 8
	}
	nb := make([]*Task, c)
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = nb
	r.head = 0
}

func (r *taskRing) pushBack(t *Task) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = t
	r.n++
}

func (r *taskRing) popFront() *Task {
	if r.n == 0 {
		return nil
	}
	t := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return t
}

func (r *taskRing) popBack() *Task {
	if r.n == 0 {
		return nil
	}
	i := (r.head + r.n - 1) & (len(r.buf) - 1)
	t := r.buf[i]
	r.buf[i] = nil
	r.n--
	return t
}

// readyQ is one mutex-guarded scheduling queue. It backs both the
// per-worker deques and the injector shards.
type readyQ struct {
	mu   sync.Mutex
	ring taskRing
	_    [16]byte // pad to a cache line so adjacent queues do not share one
}

// push enqueues t.
func (q *readyQ) push(t *Task) {
	q.mu.Lock()
	q.ring.pushBack(t)
	q.mu.Unlock()
}

// pushBlock enqueues a block of tasks under one lock.
func (q *readyQ) pushBlock(ts []*Task) {
	q.mu.Lock()
	for _, t := range ts {
		q.ring.pushBack(t)
	}
	q.mu.Unlock()
}

// pop dequeues the task the policy selects: FIFO takes the oldest task
// and LIFO the newest. steal forces oldest-first regardless of policy
// (thieves steal FIFO).
func (q *readyQ) pop(policy SchedPolicy, steal bool) *Task {
	q.mu.Lock()
	var t *Task
	if policy == PolicyLIFO && !steal {
		t = q.ring.popBack()
	} else {
		t = q.ring.popFront()
	}
	q.mu.Unlock()
	return t
}

// enqueue places a ready task on the queue the readying context dictates,
// without waking anyone: callers coalesce their wakes (a completion that
// readies k successors, or a batch publish of k tasks, issues a single
// wake sized to k). w is the worker doing the readying, or -1 for the
// master thread / external completions.
func (rt *Runtime) enqueue(t *Task, w int) {
	if rt.tracer != nil {
		rt.tracer.RQDepth(int(rt.depth.Add(1)))
	}
	if rt.det != nil {
		// Deterministic mode: one queue, one PRNG — the seeded pick
		// subsumes deque-vs-injector placement and victim order.
		rt.det.add(t)
		return
	}
	if w >= 0 {
		rt.locals[w].push(t)
		return
	}
	// Stripe the injector in blocks of consecutive submissions rather
	// than task-by-task: per-task round-robin resonates with periodic
	// workloads (with 4 shards, a period-2 input tiling lands each
	// pattern in its own shard, and each worker then only ever observes
	// one pattern — which starves dynamic ATM's training of the
	// cross-pattern comparisons it needs). Block striping keeps every
	// shard a faithful, locally-FIFO sample of the submission stream.
	shard := int((rt.injSeq.Add(1)-1)/injStripe) % len(rt.inj)
	rt.inj[shard].push(t)
}

// publishBlock publishes a batch's initially-ready tasks: block pushes
// (one lock acquisition per injector stripe) followed by a single wake
// sized to the number of tasks actually pushed.
func (rt *Runtime) publishBlock(block []*Task) {
	n := len(block)
	if n == 0 {
		return
	}
	if rt.tracer != nil {
		for range block {
			rt.tracer.RQDepth(int(rt.depth.Add(1)))
		}
	}
	if rt.det != nil {
		rt.det.addBlock(block) // seeded publication interleaving
		return
	}
	// Reserve a contiguous stripe range so consecutive batches stripe
	// coherently, then push each stripe as one block.
	base := rt.injSeq.Add(uint32(n)) - uint32(n)
	ns := len(rt.inj)
	for i := 0; i < n; {
		seq := base + uint32(i)
		shard := int(seq/injStripe) % ns
		j := i + int(injStripe-seq%injStripe)
		if j > n {
			j = n
		}
		rt.inj[shard].pushBlock(block[i:j])
		i = j
	}
	rt.wake(n)
}

// injStripe is the number of consecutive master submissions that land in
// the same injector shard.
const injStripe = 32

// wake hands up to n parked workers a wake token, clamped to the number
// actually parked so a wide fan-out cannot bank surplus tokens (which
// would bleed out later as spurious wakeups). Exactly n Signals are
// issued — a Broadcast would rouse every parked worker just to have all
// but n of them find no token and re-sleep, the herd this coalescing
// exists to avoid. The fast path (nobody parked) is a single atomic
// load.
func (rt *Runtime) wake(n int) {
	if n <= 0 {
		return
	}
	if p := int(rt.parked.Load()); p == 0 {
		return
	} else if n > p {
		n = p
	}
	rt.parkMu.Lock()
	rt.tokens += n
	for i := 0; i < n; i++ {
		rt.parkCond.Signal()
	}
	rt.parkMu.Unlock()
}

// workerLocal is per-worker scheduler state touched only by its owner,
// padded against false sharing. rng drives the randomized steal start.
type workerLocal struct {
	rng uint64
	_   [56]byte
}

// nextRand advances worker w's xorshift64 state.
func (rt *Runtime) nextRand(w int) uint64 {
	x := rt.wlocal[w].rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	rt.wlocal[w].rng = x
	return x
}

// scan makes one full pass over every queue from worker w's point of
// view: own deque first, then the injector shards, then stealing the
// oldest task from each other worker's deque in turn, starting at a
// pseudorandom victim (see the file comment).
func (rt *Runtime) scan(w int) *Task {
	if t := rt.locals[w].pop(rt.policy, false); t != nil {
		return t
	}
	ns := len(rt.inj)
	for i := 0; i < ns; i++ {
		if t := rt.inj[(w+i)%ns].pop(rt.policy, false); t != nil {
			return t
		}
	}
	nv := rt.workers - 1 // victims: every other worker
	if nv == 0 {
		return nil
	}
	r := int(rt.nextRand(w) >> 33) // top bits: xorshift lows are weaker
	for i := 0; i < nv; i++ {
		v := (w + 1 + (r+i)%nv) % rt.workers
		if t := rt.locals[v].pop(rt.policy, true); t != nil {
			return t
		}
	}
	return nil
}

// next blocks until a task is available for worker w or the runtime
// closes (nil).
func (rt *Runtime) next(w int) *Task {
	for {
		if t := rt.scan(w); t != nil {
			if rt.tracer != nil {
				rt.tracer.RQDepth(int(rt.depth.Add(-1)))
			}
			return t
		}
		if rt.closed.Load() {
			return nil
		}
		// Park protocol: advertise, rescan, then sleep. See the file
		// comment for why this cannot lose a wakeup.
		rt.parked.Add(1)
		if t := rt.scan(w); t != nil {
			rt.parked.Add(-1)
			if rt.tracer != nil {
				rt.tracer.RQDepth(int(rt.depth.Add(-1)))
			}
			return t
		}
		rt.parkMu.Lock()
		for rt.tokens == 0 && !rt.closed.Load() {
			rt.parkCond.Wait()
		}
		if rt.tokens > 0 {
			rt.tokens--
		}
		rt.parkMu.Unlock()
		rt.parked.Add(-1)
	}
}
