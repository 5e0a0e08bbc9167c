package service

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"atm/internal/core"
	"atm/internal/region"
	"atm/internal/taskrt"
)

// Config configures a service Engine.
type Config struct {
	// Workers is the task-runtime worker count (0 = 1, taskrt's rule).
	Workers int
	// Memo is the ATM engine to memoize through; nil runs a plain
	// baseline runtime (every task executes).
	Memo *core.ATM
	// Backlog fixes the admission watermark (and the runtime's
	// throttle window) at this many in-flight tasks. Zero selects the
	// adaptive LLC-sized watermark — admission control then tracks the
	// same cache-sized backlog target as the submission throttle.
	Backlog int
	// Save persists the memoization state; it runs on the engine loop
	// (quiesced, serialized with submissions). Nil disables POST
	// /v1/snapshot (409) and periodic saves.
	Save func() error
	// SaveEvery additionally runs Save on this period (0 = never).
	SaveEvery time.Duration
	// KindList overrides the served task-kind catalog (nil = Kinds()).
	KindList []Kind
	// MaxTenants caps the number of distinct tenant namespaces the
	// engine will register, the default catalog tenant included (0 =
	// 64). Each tenant costs one task type per kind it touches plus a
	// THT accounting row, so the cap bounds what untrusted clients can
	// allocate.
	MaxTenants int
}

// Task is one unit of client work: a kind name plus its input vector.
// Tenant selects the memoization namespace ("" = the default catalog
// namespace): tasks of different tenants never share THT entries, and
// with core.Config.TenantShares each tenant's entries are bounded by
// its budget share.
type Task struct {
	Kind   string
	Tenant string
	Input  []float64
}

// GroupStats is the ATM activity of the coalesced engine batch a
// request rode in: requests coalesced into the same batch observe the
// same numbers (per-batch, not per-request, attribution — the price of
// request coalescing, documented in docs/service.md). A request served
// inline (Engine.serveInline) rode in no batch and reports exactly its
// own tasks, all MemoTHT.
type GroupStats struct {
	// Tasks is the batch's task count; Executed of them ran their body,
	// MemoTHT were served from the history table, MemoIKT deduplicated
	// against an identical in-flight task.
	Tasks, Executed, MemoTHT, MemoIKT int64
}

// Counters is the engine's monotonic operational state.
type Counters struct {
	// Requests / Tasks count served work, inline or through the loop;
	// Shed* count work refused at the admission watermark (the 429 path).
	Requests, Tasks         int64
	ShedRequests, ShedTasks int64
	// InlineRequests / InlineTasks are the part of Requests / Tasks served
	// on the caller's goroutine without reaching the loop: requests whose
	// every task was a steady-state THT hit.
	InlineRequests, InlineTasks int64
	// Batches counts groups run to completion — SubmitBatch fences plus
	// inline requests, each a group of its own — so Tasks ÷ Batches stays
	// defined on a server that only ever hits; Lookups/LookupHits the
	// Peek path; Saves completed snapshot saves.
	Batches, Lookups, LookupHits, Saves int64
	// Queued is the current admitted-but-uncompleted task count;
	// BacklogLimit the current admission watermark.
	Queued, BacklogLimit int64
}

// Engine errors.
var (
	// ErrClosed is returned by calls racing or following Close.
	ErrClosed = errors.New("service: engine closed")
	// ErrNoPersistence rejects snapshot requests on an engine built
	// without a Save hook.
	ErrNoPersistence = errors.New("service: engine has no snapshot persistence configured")
)

// OverloadError is the admission-control rejection: the engine's
// in-flight backlog would exceed the watermark. HTTP maps it to
// 429 + Retry-After.
type OverloadError struct {
	Queued, Limit int64
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("service: overloaded (%d tasks queued, limit %d)", e.Queued, e.Limit)
}

// BadTaskError rejects a malformed task before admission (HTTP 400).
type BadTaskError struct{ msg string }

func (e *BadTaskError) Error() string { return "service: " + e.msg }

// Engine is the memoization service core: it owns the task runtime's
// master thread. Concurrent callers (HTTP handler goroutines) enqueue
// task groups through Do; a single loop goroutine coalesces them into
// SubmitBatch calls — request coalescing over the batched submission
// pipeline — runs each batch to its completion fence, and hands the
// outputs back. Admission control reuses the runtime's adaptive
// throttle watermark: work that would push the in-flight backlog past
// it is shed immediately (OverloadError) instead of queueing
// unboundedly, and identical in-flight tasks deduplicate through the
// IKT as in any ATM run.
type Engine struct {
	cfg   Config
	rt    *taskrt.Runtime
	memo  *core.ATM
	kinds map[string]Kind

	// types maps registered task-type names (tenant + "/" + kind) to
	// their runtime types; tenants tracks the distinct tenant names
	// against cfg.MaxTenants. Guarded by typeMu: the catalog tenant is
	// registered at construction, other tenants lazily at admission.
	typeMu  sync.RWMutex
	types   map[string]*taskrt.TaskType
	tenants map[string]bool

	reqs     chan *request
	reqPool  sync.Pool       // *request: per-request memory, reused (size-capped in release)
	ctl      chan chan error // Snapshot requests: the loop saves and replies on each
	quit     chan struct{}
	loopDone chan struct{}
	closed   atomic.Bool

	queued   atomic.Int64
	requests atomic.Int64
	tasks    atomic.Int64
	shedReqs atomic.Int64
	shedTask atomic.Int64
	batches  atomic.Int64
	lookups  atomic.Int64
	lookHits atomic.Int64
	saves    atomic.Int64

	// inlineReqs and inlineTasks count what serveInline served; requests,
	// tasks and batches above count what the loop ran, and Counters adds
	// the inline share to each. noInline turns the inline hit path off.
	// Tests only: the differential suite runs one stream through both
	// paths.
	inlineReqs  atomic.Int64
	inlineTasks atomic.Int64
	noInline    bool

	saveMu  sync.Mutex
	saveErr error

	// Loop-goroutine scratch, reused across batches (runGroup).
	group   []*request
	entries []taskrt.BatchEntry
}

// request is one submission on its way through the loop, plus the
// memory a submission needs: the HTTP handler's body and reply buffers,
// the decoded tasks and the slabs their input and output vectors are
// carved from. Requests recycle through Engine.reqPool, so a warm server
// allocates none of it per request. A pool per engine, not per process:
// what a request holds is sized by this engine's catalog and traffic.
type request struct {
	tasks []Task
	outs  [][]float64
	group GroupStats
	// done receives one token when the loop has run the request; its
	// capacity of one means the loop never blocks on a requester.
	done chan struct{}

	// types is resolved before admission and regs laid out after it,
	// both on the requester's goroutine, so the loop goroutine only
	// wires batch entries and a shed request was only validated. regs
	// holds the input and output region of task j at 2j and 2j+1. It is
	// allocated afresh per submission and never reused: region identity
	// is meaningful to core (the Dynamic-ATM exclusion set is keyed by
	// output region pointer).
	types []*taskrt.TaskType
	regs  []region.Float64
	// memoizable reports that every task's kind is memoizable
	// (resolveTypes): only then is the inline hit path tried. hits and
	// hitRegs are that attempt's task list and region headers; unlike
	// regs they are pooled, because core.ServeHits never observes region
	// identity and the runtime never sees them.
	memoizable bool
	hits       []core.HitTask
	hitRegs    []hitRegions

	body    []byte    // HTTP body
	taskBuf []Task    // backing array of decoded tasks
	in      []float64 // input slab: decoded tasks' Input vectors point into it
	out     []float64 // output slab: outs point into it
	reply   []byte    // encoded HTTP reply
}

// hitRegions is one task's region headers for an out-of-band probe
// (serveInline, LookupTenant) and the interface values pointing at them,
// so a core.HitTask's one-element Ins and Outs are slices of ref.
type hitRegions struct {
	in, out region.Float64
	ref     [2]region.Region
}

// set points the headers at a task's input and output vectors and
// returns the region lists core takes.
func (h *hitRegions) set(in, out []float64) (ins, outs []region.Region) {
	h.in.Data, h.out.Data = in, out
	h.ref = [2]region.Region{&h.in, &h.out}
	return h.ref[0:1], h.ref[1:2]
}

// maxPooledRequestBytes caps what one pooled request may keep alive. An
// occasional huge request is dropped to the garbage collector instead
// of pinning its buffers in the pool, so idle memory tracks the typical
// request, not the largest ever seen.
const maxPooledRequestBytes = 1 << 20

// getRequest returns a reset request from the pool (or a new one).
func (e *Engine) getRequest() *request {
	if r, _ := e.reqPool.Get().(*request); r != nil {
		return r
	}
	return &request{done: make(chan struct{}, 1)}
}

// release returns r's memory to the pool. The caller must be done with
// everything r handed out (decoded tasks, outs, reply), and the loop
// must be done with r: release is only called before r was enqueued or
// after its done token was received.
func (e *Engine) release(r *request) {
	// In bytes: a Task is 56, a type pointer 8, a slice header 24, a
	// HitTask 104, a hitRegions 128.
	kept := cap(r.body) + cap(r.reply) + 8*(cap(r.in)+cap(r.out)) +
		56*cap(r.taskBuf) + 8*cap(r.types) + 24*cap(r.outs) +
		104*cap(r.hits) + 128*cap(r.hitRegs)
	if kept > maxPooledRequestBytes {
		return
	}
	clear(r.taskBuf[:cap(r.taskBuf)]) // drop kind/tenant strings and input slices
	clear(r.types[:cap(r.types)])
	clear(r.outs[:cap(r.outs)])
	// hits points at types, which live as long as the engine, and into
	// hitRegs; only hitRegs points at memory that may be the caller's.
	clear(r.hitRegs[:cap(r.hitRegs)])
	r.tasks, r.regs, r.group = nil, nil, GroupStats{}
	e.reqPool.Put(r)
}

// New builds the engine and starts its loop. The caller must Close it.
func New(cfg Config) *Engine {
	kindList := cfg.KindList
	if kindList == nil {
		kindList = Kinds()
	}
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = 64
	}
	var m taskrt.Memoizer
	if cfg.Memo != nil {
		m = cfg.Memo
	}
	rt := taskrt.New(taskrt.Config{
		Workers:        cfg.Workers,
		Memoizer:       m,
		ThrottleWindow: cfg.Backlog,
	})
	e := &Engine{
		cfg:   cfg,
		rt:    rt,
		memo:  cfg.Memo,
		kinds: make(map[string]Kind, len(kindList)),
		types: make(map[string]*taskrt.TaskType, len(kindList)),
		// The channel outlasts the watermark's hard cap (16384 tasks,
		// one request minimum each), so an admitted request never blocks
		// on the channel itself.
		reqs:     make(chan *request, 32768),
		ctl:      make(chan chan error),
		quit:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	e.tenants = map[string]bool{}
	for _, k := range kindList {
		e.kinds[k.Name] = k
		// Registering at construction also touches restored type state:
		// snapshot sections install as types register, and a server
		// should surface its warm-start entry count (and per-type
		// metrics) from construction, not from the first request.
		e.typeMu.Lock()
		_, err := e.registerTypeLocked("", k)
		e.typeMu.Unlock()
		if err != nil {
			panic("service: catalog registration exceeded MaxTenants: " + err.Error())
		}
	}
	go e.loop()
	return e
}

// typeName is the task-type name registered for (tenant, kind): the
// tenant namespace prefix core.SplitTenant recognizes. The default
// tenant is the catalog's historical "svc/" prefix, so default-tenant
// snapshots stay compatible.
func typeName(tenant string, k Kind) string {
	if tenant == "" {
		return k.TypeName()
	}
	return tenant + "/" + k.Name
}

// validTenant bounds tenant names: metrics-label- and
// type-name-safe characters only, no '/' (the namespace separator),
// and not the default catalog prefix (which "" already addresses).
func validTenant(t string) error {
	if t == "" {
		return nil
	}
	if t == "svc" {
		return &BadTaskError{msg: `tenant "svc" is the default namespace; omit the tenant instead`}
	}
	if len(t) > 64 {
		return &BadTaskError{msg: fmt.Sprintf("tenant name %q longer than 64 bytes", t[:64])}
	}
	for i := 0; i < len(t); i++ {
		c := t[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '-' || c == '.' {
			continue
		}
		return &BadTaskError{msg: fmt.Sprintf("tenant name %q: want [A-Za-z0-9_.-]", t)}
	}
	return nil
}

// taskType returns the registered runtime type for (tenant, kind), or
// nil when that pair was never admitted.
func (e *Engine) taskType(tenant string, k Kind) *taskrt.TaskType {
	e.typeMu.RLock()
	tt := e.types[typeName(tenant, k)]
	e.typeMu.RUnlock()
	return tt
}

// registerType resolves (tenant, kind) to its runtime type,
// registering the type (and the tenant) on first use. The MaxTenants
// cap is enforced here: a request naming one tenant too many is
// rejected before admission.
func (e *Engine) registerType(tenant string, k Kind) (*taskrt.TaskType, error) {
	if tt := e.taskType(tenant, k); tt != nil {
		return tt, nil
	}
	e.typeMu.Lock()
	defer e.typeMu.Unlock()
	return e.registerTypeLocked(tenant, k)
}

func (e *Engine) registerTypeLocked(tenant string, k Kind) (*taskrt.TaskType, error) {
	name := typeName(tenant, k)
	if tt := e.types[name]; tt != nil {
		return tt, nil
	}
	tkey := core.TenantOf(name)
	if !e.tenants[tkey] && len(e.tenants) >= e.cfg.MaxTenants {
		return nil, &BadTaskError{msg: fmt.Sprintf("tenant %q would exceed the %d-tenant limit", tenant, e.cfg.MaxTenants)}
	}
	tt := e.rt.RegisterType(taskrt.TypeConfig{
		Name:    name,
		Memoize: k.Memoize,
		Run: func(t *taskrt.Task) {
			k.Fn(t.Float64s(0), t.Float64s(1))
		},
	})
	if e.memo != nil && k.Memoize {
		e.memo.ChosenLevel(tt)
	}
	e.tenants[tkey] = true
	e.types[name] = tt
	return tt, nil
}

// Runtime exposes the underlying task runtime (tests, stats).
func (e *Engine) Runtime() *taskrt.Runtime { return e.rt }

// Memoizing reports whether an ATM engine is attached.
func (e *Engine) Memoizing() bool { return e.memo != nil }

// Stats snapshots the ATM engine's statistics (zero when baseline).
func (e *Engine) Stats() core.Stats {
	if e.memo == nil {
		return core.Stats{}
	}
	return e.memo.Stats()
}

// KindNames lists the served kinds in catalog order.
func (e *Engine) KindNames() []string {
	names := make([]string, 0, len(e.kinds))
	for _, k := range Kinds() {
		if _, ok := e.kinds[k.Name]; ok {
			names = append(names, k.Name)
		}
	}
	return names
}

// Kind resolves a served kind by wire name.
func (e *Engine) Kind(name string) (Kind, bool) {
	k, ok := e.kinds[name]
	return k, ok
}

// Counters returns the engine's operational counters.
func (e *Engine) Counters() Counters {
	inlineReqs, inlineTasks := e.inlineReqs.Load(), e.inlineTasks.Load()
	return Counters{
		Requests:       e.requests.Load() + inlineReqs,
		Tasks:          e.tasks.Load() + inlineTasks,
		ShedRequests:   e.shedReqs.Load(),
		ShedTasks:      e.shedTask.Load(),
		InlineRequests: inlineReqs,
		InlineTasks:    inlineTasks,
		Batches:        e.batches.Load() + inlineReqs,
		Lookups:        e.lookups.Load(),
		LookupHits:     e.lookHits.Load(),
		Saves:          e.saves.Load(),
		Queued:         e.queued.Load(),
		BacklogLimit:   int64(e.rt.BacklogLimit()),
	}
}

// SaveErr returns the most recent snapshot-save failure (periodic or
// requested), nil if none.
func (e *Engine) SaveErr() error {
	e.saveMu.Lock()
	defer e.saveMu.Unlock()
	return e.saveErr
}

func (e *Engine) setSaveErr(err error) {
	e.saveMu.Lock()
	e.saveErr = err
	e.saveMu.Unlock()
}

// resolveTypes checks a task group before admission and registers any
// new (tenant, kind) types it names, so the loop goroutine only ever sees
// resolved tasks. It returns the group's total output length.
func (e *Engine) resolveTypes(r *request) (nout int, err error) {
	if len(r.tasks) == 0 {
		return 0, &BadTaskError{msg: "empty task list"}
	}
	r.types = r.types[:0]
	r.memoizable = true
	for i, t := range r.tasks {
		k, ok := e.kinds[t.Kind]
		if !ok {
			return 0, &BadTaskError{msg: fmt.Sprintf("task %d: unknown kind %q", i, t.Kind)}
		}
		if len(t.Input) != k.In {
			return 0, &BadTaskError{msg: fmt.Sprintf("task %d: kind %q wants %d input floats, got %d", i, t.Kind, k.In, len(t.Input))}
		}
		if err := validTenant(t.Tenant); err != nil {
			return 0, fmt.Errorf("task %d: %w", i, err)
		}
		tt, err := e.registerType(t.Tenant, k)
		if err != nil {
			return 0, fmt.Errorf("task %d: %w", i, err)
		}
		r.types = append(r.types, tt)
		r.memoizable = r.memoizable && k.Memoize
		nout += k.Out
	}
	return nout, nil
}

// carve sizes the request's output slab to nout floats, without zeroing
// it, and cuts each task's output vector out of it.
func (e *Engine) carve(r *request, nout int) {
	if cap(r.out) < nout {
		r.out = make([]float64, nout)
	}
	r.out = r.out[:nout]
	if cap(r.outs) < len(r.tasks) {
		r.outs = make([][]float64, len(r.tasks))
	}
	r.outs = r.outs[:len(r.tasks)]
	off := 0
	for j, t := range r.tasks {
		n := e.kinds[t.Kind].Out
		r.outs[j] = r.out[off : off+n : off+n]
		off += n
	}
}

// layout carves an admitted request's output vectors out of one zeroed
// slab of nout floats and wires its regions.
func (e *Engine) layout(r *request, nout int) {
	e.carve(r, nout)
	// Outputs start zeroed, as a fresh region would: a kernel is not
	// obliged to write every element. (A fresh slab is zero already; the
	// slab an abandoned inline attempt carved is not.)
	clear(r.out)
	r.regs = make([]region.Float64, 2*len(r.tasks))
	for j, t := range r.tasks {
		r.regs[2*j].Data = t.Input
		r.regs[2*j+1].Data = r.outs[j]
	}
}

// serveInline is the inline hit path: it tries to serve r from the
// table on the caller's goroutine (core.ServeHits) and reports whether
// it did. All or nothing: when it reports false nothing was served,
// counted or written and r goes to the loop whole, as if the attempt had
// not been made — except that r.out is carved and holds whatever the
// pooled slab held, which layout clears.
func (e *Engine) serveInline(r *request, nout int) bool {
	if e.memo == nil || e.noInline || !r.memoizable {
		return false
	}
	e.carve(r, nout)
	n := len(r.tasks)
	if cap(r.hits) < n {
		r.hits = make([]core.HitTask, n)
	}
	if cap(r.hitRegs) < n {
		r.hitRegs = make([]hitRegions, n)
	}
	r.hits, r.hitRegs = r.hits[:n], r.hitRegs[:n]
	for j, t := range r.tasks {
		h := &r.hits[j]
		h.Type = r.types[j]
		h.Ins, h.Outs = r.hitRegs[j].set(t.Input, r.outs[j])
	}
	if !e.memo.ServeHits(r.hits) {
		return false
	}
	// A group of its own, run to completion: Counters folds these into
	// Requests, Tasks and Batches.
	e.inlineReqs.Add(1)
	e.inlineTasks.Add(int64(n))
	r.group = GroupStats{Tasks: int64(n), MemoTHT: int64(n)}
	return true
}

// Do submits a group of tasks and blocks until their outputs are
// ready. The group is admitted or shed atomically: on success every
// task's output vector is returned in order, plus the stats of the
// coalesced batch the group rode in; past the watermark it returns
// *OverloadError without queueing anything.
func (e *Engine) Do(tasks []Task) ([][]float64, GroupStats, error) {
	r := e.getRequest()
	r.tasks = tasks
	if err := e.submit(r); err != nil {
		return nil, GroupStats{}, err
	}
	outs, g := r.outs, r.group
	r.outs, r.out = nil, nil // the caller owns them now
	e.release(r)
	return outs, g, nil
}

// submit serves r.tasks — inline when every task is a table hit, else
// through the loop — and blocks until r.outs and r.group are filled in.
// On success the caller releases r once it has consumed them; on error
// submit has disposed of r itself.
func (e *Engine) submit(r *request) error {
	if e.closed.Load() {
		e.release(r)
		return ErrClosed
	}
	nout, err := e.resolveTypes(r)
	if err != nil {
		e.release(r)
		return err
	}
	// Hits are served where the request is, ahead of admission: they are
	// not queued, so they are not shed either.
	if e.serveInline(r, nout) {
		return nil
	}
	n := int64(len(r.tasks))
	limit := int64(e.rt.BacklogLimit())
	if q := e.queued.Add(n); q > limit {
		e.queued.Add(-n)
		e.shedReqs.Add(1)
		e.shedTask.Add(n)
		e.release(r)
		return &OverloadError{Queued: q - n, Limit: limit}
	}
	e.requests.Add(1)
	e.tasks.Add(n)
	// Only an admitted request pays for its region headers and a zeroed
	// output slab: a request shed above was validated and, when all its
	// kinds are memoizable, probed up to its first miss (serveInline).
	e.layout(r, nout)
	select {
	case e.reqs <- r:
	case <-e.quit:
		e.queued.Add(-n)
		e.release(r)
		return ErrClosed
	}
	select {
	case <-r.done:
		return nil
	case <-e.loopDone:
		// The loop exited without processing this request (shutdown
		// race): the work never ran. r may still sit in e.reqs, so it is
		// left to the garbage collector, not the pool.
		return ErrClosed
	}
}

// Lookup probes the memoization table for the outputs the engine would
// serve for (kind, input) in the default namespace; see LookupTenant.
func (e *Engine) Lookup(kind string, input []float64) ([]float64, bool, error) {
	return e.LookupTenant("", kind, input, nil)
}

// LookupTenant probes the memoization table for the outputs the engine
// would serve for (tenant, kind, input) right now, without executing
// anything; on a hit they are returned in dst's memory when it has room
// (a caller that recycles dst looks up without allocating). It runs
// entirely off the engine loop and is quiet (core.Peek): the table's
// counters and its eviction state do not move, only Counters.Lookups
// and LookupHits. A tenant that never submitted is simply a miss: the
// read path must not allocate namespaces.
func (e *Engine) LookupTenant(tenant, kind string, input, dst []float64) ([]float64, bool, error) {
	k, ok := e.kinds[kind]
	if !ok {
		return nil, false, &BadTaskError{msg: fmt.Sprintf("unknown kind %q", kind)}
	}
	if len(input) != k.In {
		return nil, false, &BadTaskError{msg: fmt.Sprintf("kind %q wants %d input floats, got %d", kind, k.In, len(input))}
	}
	if err := validTenant(tenant); err != nil {
		return nil, false, err
	}
	e.lookups.Add(1)
	if e.memo == nil || !k.Memoize {
		return nil, false, nil
	}
	tt := e.taskType(tenant, k)
	if tt == nil {
		return nil, false, nil
	}
	if cap(dst) < k.Out {
		dst = make([]float64, k.Out)
	}
	dst = dst[:k.Out]
	// The region headers come from a pooled request, as serveInline's do.
	r := e.getRequest()
	if cap(r.hitRegs) == 0 {
		r.hitRegs = make([]hitRegions, 1)
	}
	r.hitRegs = r.hitRegs[:1]
	ins, outs := r.hitRegs[0].set(input, dst)
	hit := e.memo.Peek(tt, ins, outs)
	e.release(r)
	if !hit {
		return nil, false, nil
	}
	e.lookHits.Add(1)
	return dst, true, nil
}

// Snapshot runs the configured Save hook (the delta-chain append under
// harness serve mode), serialized on the engine loop and quiesced at a
// completion fence. The hook alone decides where state is written.
func (e *Engine) Snapshot() error {
	if e.memo == nil || e.cfg.Save == nil {
		return ErrNoPersistence
	}
	c := make(chan error, 1)
	select {
	case e.ctl <- c:
	case <-e.loopDone:
		return ErrClosed
	}
	select {
	case err := <-c:
		return err
	case <-e.loopDone:
		return ErrClosed
	}
}

// Close drains queued requests, runs a final save (when configured)
// and stops the runtime. It returns the final save's error, if any.
func (e *Engine) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		<-e.loopDone
		return e.SaveErr()
	}
	close(e.quit)
	<-e.loopDone
	e.rt.Close()
	return e.SaveErr()
}

// save runs the Save hook on the loop goroutine.
func (e *Engine) save() error {
	err := e.cfg.Save()
	if err != nil {
		e.setSaveErr(err)
	} else {
		e.saves.Add(1)
	}
	return err
}

// loop is the engine's master goroutine: the only caller of
// SubmitBatch/Wait/Reset, per taskrt's single-submitter contract.
func (e *Engine) loop() {
	defer close(e.loopDone)
	var tick <-chan time.Time
	if e.cfg.Save != nil && e.cfg.SaveEvery > 0 {
		t := time.NewTicker(e.cfg.SaveEvery)
		defer t.Stop()
		tick = t.C
	}
	var sinceReset int
	for {
		select {
		case r := <-e.reqs:
			e.runGroup(r)
			if sinceReset++; sinceReset >= resetEvery {
				// All fresh regions from the drained batches are dead;
				// drop their dependence state so the live-slot list
				// stays bounded over a service lifetime.
				e.rt.Reset()
				sinceReset = 0
			}
		case c := <-e.ctl:
			c <- e.save()
		case <-tick:
			_ = e.save()
		case <-e.quit:
			for {
				select {
				case r := <-e.reqs:
					e.runGroup(r)
				default:
					if e.cfg.Save != nil {
						_ = e.save()
					}
					return
				}
			}
		}
	}
}

// memoTotals reads the ATM activity counters the group diff needs: the
// runtime workers' only, so hits that handler goroutines commit inline
// during the batch are not attributed to it.
func (e *Engine) memoTotals() core.TaskTotals {
	if e.memo == nil {
		return core.TaskTotals{}
	}
	return e.memo.WorkerTotals()
}

const (
	// coalesceTasks caps the tasks folded into one SubmitBatch call.
	// Larger batches amortize submission cost; smaller ones bound the
	// per-batch completion fence a request may wait behind.
	coalesceTasks = 512
	// resetEvery is the number of engine batches between rt.Reset()
	// calls. Every request's regions are fresh, so dependence state is
	// garbage after each fence; periodic resets keep the runtime's
	// live-slot list bounded on a long-lived server.
	resetEvery = 64
	// maxKeptEntries bounds the batch-entry buffer the loop keeps
	// between batches: a full coalesced batch plus the request that
	// overshot it. One oversized request does not pin a buffer of its
	// size.
	maxKeptEntries = 4096
)

// runGroup coalesces the first request with whatever else is already
// queued (up to coalesceTasks tasks), submits the whole group as one
// batch, runs it to the completion fence and hands each request its
// token.
func (e *Engine) runGroup(first *request) {
	group := append(e.group[:0], first)
	total := len(first.tasks)
	for total < coalesceTasks {
		select {
		case r := <-e.reqs:
			group = append(group, r)
			total += len(r.tasks)
		default:
			goto drained
		}
	}
drained:
	pre := e.memoTotals()
	entries := e.entries[:0]
	for _, r := range group {
		for j, tt := range r.types {
			entries = append(entries, taskrt.Desc(tt,
				taskrt.In(&r.regs[2*j]), taskrt.Out(&r.regs[2*j+1])))
		}
	}
	e.rt.SubmitBatch(entries)
	e.rt.Wait()
	e.batches.Add(1)

	post := e.memoTotals()
	g := GroupStats{
		Tasks:    post.Tasks - pre.Tasks,
		Executed: post.Executed - pre.Executed,
		MemoTHT:  post.MemoizedTHT - pre.MemoizedTHT,
		MemoIKT:  post.MemoizedIKT - pre.MemoizedIKT,
	}
	for _, r := range group {
		r.group = g
		r.done <- struct{}{}
	}
	e.queued.Add(-int64(total))

	// Keep the buffers, not what they point to.
	clear(group)
	e.group = group[:0]
	if cap(entries) > maxKeptEntries {
		entries = nil
	}
	clear(entries)
	e.entries = entries[:0]
}
