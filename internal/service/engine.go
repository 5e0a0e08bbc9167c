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
	// Save persists the memoization state; it runs under the runtime
	// lock (quiesced, serialized with runtime fences). Nil disables POST
	// /v1/snapshot (409) and periodic saves.
	Save func() error
	// SaveEvery additionally runs Save on this period (0 = never).
	SaveEvery time.Duration
	// KindList overrides the served task-kind catalog (nil = Kinds()).
	KindList []Kind
	// MaxTenants caps the number of distinct tenant namespaces the
	// engine will register, the default catalog tenant included (0 =
	// 64). Each tenant costs one task type per kind it touches, so the
	// cap bounds what untrusted clients can allocate.
	MaxTenants int
}

// Task is one unit of client work: a kind name plus its input vector.
// Tenant selects the memoization namespace ("" = the default catalog
// namespace): tasks of different tenants never share THT entries.
type Task struct {
	Kind   string
	Tenant string
	Input  []float64
}

// GroupStats is the ATM activity of one request, exactly its own: a
// request served inline (Engine.serveInline) reports the misses it ran
// as Executed and the rest as MemoTHT; one run through the runtime
// (Engine.run) reports the workers' counters diffed around its fence.
type GroupStats struct {
	// Tasks is the request's ATM-visible task count; Executed of them
	// ran their body, MemoTHT were served from the history table, MemoIKT
	// deduplicated against an identical in-flight task of the request.
	Tasks, Executed, MemoTHT, MemoIKT int64
}

// Counters is the engine's monotonic operational state.
type Counters struct {
	// Requests / Tasks count served work, inline or through the runtime;
	// Shed* count work refused at the admission watermark (the 429 path).
	Requests, Tasks         int64
	ShedRequests, ShedTasks int64
	// InlineRequests / InlineTasks are the part of Requests / Tasks served
	// by core.Serve without the runtime: requests whose every task is
	// memoizable and of a steady type, hits and misses alike.
	InlineRequests, InlineTasks int64
	// Batches counts groups run to completion. Every request is one, so
	// it equals Requests; it stays because Tasks ÷ Batches is the
	// benchmark's tasks-per-batch figure. Lookups/LookupHits count the
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

// Engine is the memoization service core. Concurrent callers (HTTP
// handler goroutines) submit task groups through Do, and each group is
// served on its caller's goroutine: through core.Serve when every task
// is memoizable and of a steady type (serveInline), else under the
// runtime lock, whose holder is the task runtime's one submitter for a
// SubmitBatch, Wait and Reset of its own tasks (run). Admission control
// reuses the runtime's adaptive throttle watermark: work that would push
// the in-flight backlog past it is shed immediately (OverloadError)
// instead of queueing unboundedly — waiters for the runtime lock
// included — and identical tasks of one group deduplicate through the
// IKT as in any ATM run.
type Engine struct {
	cfg   Config
	rt    *taskrt.Runtime
	memo  *core.ATM
	kinds map[string]Kind

	// types maps registered task-type names (tenant + "/" + kind) to
	// their runtime types; tenants tracks the distinct tenant names ("" for
	// the catalog) against cfg.MaxTenants. Guarded by typeMu: the catalog tenant is
	// registered at construction, other tenants lazily at admission.
	typeMu  sync.RWMutex
	types   map[string]*taskrt.TaskType
	tenants map[string]bool

	reqPool sync.Pool // *request: per-request memory, reused (size-capped in release)

	// rtMu is the runtime lock. taskrt takes one submitter at a time, so
	// every SubmitBatch, Wait and Reset runs under it, and so does the
	// Save hook, which then sees a quiesced runtime.
	rtMu sync.Mutex
	// life is held shared by every request and requested save from its
	// closed check to its reply, and exclusively by Close, which so waits
	// them all out. It guards closed.
	life      sync.RWMutex
	closed    bool
	closeOnce sync.Once
	// stopSaves stops the periodic saver, which closes savesDone as it
	// exits; both are nil without one.
	stopSaves, savesDone chan struct{}

	queued   atomic.Int64
	requests atomic.Int64
	tasks    atomic.Int64
	shedReqs atomic.Int64
	shedTask atomic.Int64
	lookups  atomic.Int64
	lookHits atomic.Int64
	saves    atomic.Int64

	// inlineReqs and inlineTasks count what serveInline served; requests
	// and tasks above count what the runtime ran, and Counters adds the
	// inline share to each. noInline turns the inline path off. Tests
	// only: the differential suite runs one stream through both paths.
	inlineReqs  atomic.Int64
	inlineTasks atomic.Int64
	noInline    bool

	saveMu  sync.Mutex
	saveErr error

	// kernels holds each served kind's body in the form core.Serve runs
	// it on a handler goroutine (see kernel); immutable after New.
	kernels map[string]func(ins, outs []region.Region)
}

// request is one submission plus the memory a submission needs: the
// HTTP handler's body and reply buffers, the decoded tasks and the slabs
// their input and output vectors are carved from. Requests recycle
// through Engine.reqPool, so a warm server allocates none of it per
// request. A pool per engine, not per process: what a request holds is
// sized by this engine's catalog and traffic.
type request struct {
	tasks []Task
	outs  [][]float64
	group GroupStats

	// types is resolved before admission and regs laid out after it, so
	// a shed request was only validated. regs holds the input and output
	// region of task j at 2j and 2j+1. It is allocated afresh per
	// submission and never reused: region identity is meaningful to core
	// (the Dynamic-ATM exclusion set is keyed by output region pointer)
	// and to taskrt (dependence state hangs off the header). entries are
	// the batch run submits, pooled: they point at regs only until the
	// fence.
	types   []*taskrt.TaskType
	regs    []region.Float64
	entries []taskrt.BatchEntry
	// memoizable reports that every task's kind is memoizable
	// (resolveTypes): only then is the inline path tried. serve and
	// hitRegs are that attempt's task list and region headers; unlike
	// regs they are pooled, because core.Serve never observes region
	// identity and the runtime never sees them.
	memoizable bool
	serve      []core.ServeTask
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
	return new(request)
}

// release returns r's memory to the pool. The caller must be done with
// everything r handed out (decoded tasks, outs, reply).
func (e *Engine) release(r *request) {
	// In bytes: a Task is 56, a type pointer 8, a slice header 24, a
	// ServeTask 112, a hitRegions 128, a BatchEntry 88.
	kept := cap(r.body) + cap(r.reply) + 8*(cap(r.in)+cap(r.out)) +
		56*cap(r.taskBuf) + 8*cap(r.types) + 24*cap(r.outs) +
		112*cap(r.serve) + 128*cap(r.hitRegs) + 88*cap(r.entries)
	if kept > maxPooledRequestBytes {
		return
	}
	clear(r.taskBuf[:cap(r.taskBuf)]) // drop kind/tenant strings and input slices
	clear(r.types[:cap(r.types)])
	clear(r.outs[:cap(r.outs)])
	// serve points at types and kernels, which live as long as the
	// engine, and into hitRegs; only hitRegs points at memory that may be
	// the caller's.
	clear(r.hitRegs[:cap(r.hitRegs)])
	r.tasks, r.regs, r.group = nil, nil, GroupStats{}
	e.reqPool.Put(r)
}

// New builds the engine and starts its periodic saver, if configured.
// The caller must Close it.
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
		cfg:     cfg,
		rt:      rt,
		memo:    cfg.Memo,
		kinds:   make(map[string]Kind, len(kindList)),
		kernels: make(map[string]func(ins, outs []region.Region), len(kindList)),
		types:   make(map[string]*taskrt.TaskType, len(kindList)),
	}
	e.tenants = map[string]bool{}
	for _, k := range kindList {
		e.kinds[k.Name] = k
		e.kernels[k.Name] = kernel(k)
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
	if cfg.Save != nil && cfg.SaveEvery > 0 {
		e.stopSaves, e.savesDone = make(chan struct{}), make(chan struct{})
		go e.saveEvery()
	}
	return e
}

// kernel adapts k's body to core.ServeTask.Run: one input and one output
// region, both hitRegions' Float64 headers. The output is cleared first,
// as layout clears it for the runtime — a kernel is not obliged to write
// every element, and the pooled slab holds an earlier request's floats.
func kernel(k Kind) func(ins, outs []region.Region) {
	return func(ins, outs []region.Region) {
		out := outs[0].(*region.Float64).Data
		clear(out)
		k.Fn(ins[0].(*region.Float64).Data, out)
	}
}

// typeName is the task-type name registered for (tenant, kind): the
// tenant is a "tenant/" prefix, and since the name seeds every hash key
// (core's typeSeed), tenants' key spaces are disjoint at no per-task
// cost. The default tenant is the catalog's historical "svc/" prefix,
// so default-tenant snapshots stay compatible.
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
	if !e.tenants[tenant] && len(e.tenants) >= e.cfg.MaxTenants {
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
	e.tenants[tenant] = true
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
	reqs := e.requests.Load() + inlineReqs
	return Counters{
		Requests:       reqs,
		Tasks:          e.tasks.Load() + inlineTasks,
		ShedRequests:   e.shedReqs.Load(),
		ShedTasks:      e.shedTask.Load(),
		InlineRequests: inlineReqs,
		InlineTasks:    inlineTasks,
		Batches:        reqs,
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
// new (tenant, kind) types it names. It returns the group's total output
// length.
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
	// obliged to write every element. (A fresh slab is zero already; a
	// pooled one, or the one a declined inline attempt carved, is not.)
	clear(r.out)
	r.regs = make([]region.Float64, 2*len(r.tasks))
	for j, t := range r.tasks {
		r.regs[2*j].Data = t.Input
		r.regs[2*j+1].Data = r.outs[j]
	}
}

// serveInline is the inline path: it tries to serve r on the caller's
// goroutine (core.Serve) — hits copied from the table, misses run right
// here and inserted — and reports whether r was answered, with err set
// when it was shed. A request with misses is admitted for them alone,
// against the watermark and for as long as they run; one that is all
// hits is never shed. When serveInline reports false nothing was served,
// counted or written and r goes to the runtime whole, as if the attempt
// had not been made — except that r.out is carved and holds whatever the
// pooled slab held, which layout clears.
func (e *Engine) serveInline(r *request, nout int) (answered bool, err error) {
	if e.memo == nil || e.noInline || !r.memoizable {
		return false, nil
	}
	e.carve(r, nout)
	n := len(r.tasks)
	if cap(r.serve) < n {
		r.serve = make([]core.ServeTask, n)
	}
	if cap(r.hitRegs) < n {
		r.hitRegs = make([]hitRegions, n)
	}
	r.serve, r.hitRegs = r.serve[:n], r.hitRegs[:n]
	for j, t := range r.tasks {
		st := &r.serve[j]
		st.Type = r.types[j]
		st.Ins, st.Outs = r.hitRegs[j].set(t.Input, r.outs[j])
		st.Run = e.kernels[t.Kind]
	}
	var admitted int64
	var over *OverloadError
	executed, ok := e.memo.Serve(r.serve, func(misses int) bool {
		admitted = int64(misses)
		over = e.admit(admitted)
		return over == nil
	})
	if over != nil {
		return true, e.shed(r, over)
	}
	if !ok {
		return false, nil // declined before hashing
	}
	e.queued.Add(-admitted)
	// A group of its own, run to completion: Counters folds these into
	// Requests, Tasks and Batches.
	e.inlineReqs.Add(1)
	e.inlineTasks.Add(int64(n))
	r.group = GroupStats{Tasks: int64(n), Executed: int64(executed), MemoTHT: int64(n - executed)}
	return true, nil
}

// Do submits a group of tasks and blocks until their outputs are
// ready. The group is admitted or shed atomically: on success every
// task's output vector is returned in order, plus the group's own ATM
// stats; past the watermark it returns *OverloadError without queueing
// anything.
func (e *Engine) Do(tasks []Task) ([][]float64, GroupStats, error) {
	e.life.RLock()
	defer e.life.RUnlock()
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

// submit serves r.tasks — inline when every task is memoizable and of a
// steady type, else through the runtime — and fills in r.outs and
// r.group. The caller holds e.life shared until it has replied. On
// success the caller releases r once it has consumed r.outs and r.group;
// on error submit has disposed of r itself.
func (e *Engine) submit(r *request) error {
	if e.closed {
		e.release(r)
		return ErrClosed
	}
	nout, err := e.resolveTypes(r)
	if err != nil {
		e.release(r)
		return err
	}
	if answered, err := e.serveInline(r, nout); answered {
		return err
	}
	// Admitted whole before it waits for the runtime lock, so the
	// watermark bounds the lock's waiters too.
	n := int64(len(r.tasks))
	if over := e.admit(n); over != nil {
		return e.shed(r, over)
	}
	// Only an admitted request pays for its region headers and a zeroed
	// output slab: a request shed above was validated and nothing more
	// (the inline attempt, when all its kinds are memoizable, declined
	// before hashing).
	e.layout(r, nout)
	e.run(r)
	e.queued.Add(-n)
	e.requests.Add(1)
	e.tasks.Add(n)
	return nil
}

// run submits r's tasks as one batch under the runtime lock, waits for
// their fence and resets the runtime's dependence state: r's regions
// are dead after its fence, so the live-slot list never holds more than
// one request's slots. r.group is the diff of the workers' ATM counters
// around the fence, r's alone: nothing else submits while the lock is
// held, and what handlers serve inline meanwhile is not in the workers'
// counters.
func (e *Engine) run(r *request) {
	for j, tt := range r.types {
		r.entries = append(r.entries, taskrt.Desc(tt,
			taskrt.In(&r.regs[2*j]), taskrt.Out(&r.regs[2*j+1])))
	}
	e.rtMu.Lock()
	pre := e.memoTotals()
	e.rt.SubmitBatch(r.entries)
	e.rt.Wait()
	post := e.memoTotals()
	e.rt.Reset()
	e.rtMu.Unlock()
	clear(r.entries) // keep the buffer, not the regions it points at
	r.entries = r.entries[:0]
	r.group = GroupStats{
		Tasks:    post.Tasks - pre.Tasks,
		Executed: post.Executed - pre.Executed,
		MemoTHT:  post.MemoizedTHT - pre.MemoizedTHT,
		MemoIKT:  post.MemoizedIKT - pre.MemoizedIKT,
	}
}

// memoTotals reads the ATM activity counters run diffs: the runtime
// workers' only, so what handler goroutines serve inline during a fence
// is not attributed to it.
func (e *Engine) memoTotals() core.TaskTotals {
	if e.memo == nil {
		return core.TaskTotals{}
	}
	return e.memo.WorkerTotals()
}

// admit counts n tasks into the backlog, or leaves it as it was and
// returns the overload when they would push it past the watermark.
func (e *Engine) admit(n int64) *OverloadError {
	limit := int64(e.rt.BacklogLimit())
	if q := e.queued.Add(n); q > limit {
		e.queued.Add(-n)
		return &OverloadError{Queued: q - n, Limit: limit}
	}
	return nil
}

// shed refuses r, whole, at the watermark: it is counted and released,
// and over is the caller's error.
func (e *Engine) shed(r *request, over *OverloadError) error {
	e.shedReqs.Add(1)
	e.shedTask.Add(int64(len(r.tasks)))
	e.release(r)
	return over
}

// Lookup probes the memoization table for the outputs the engine would
// serve for (kind, input) in the default namespace; see LookupTenant.
func (e *Engine) Lookup(kind string, input []float64) ([]float64, bool, error) {
	return e.LookupTenant("", kind, input, nil)
}

// LookupTenant probes the memoization table for the outputs the engine
// would serve for (tenant, kind, input) right now, without executing
// anything; on a hit they are returned in dst's memory when it has room
// (a caller that recycles dst looks up without allocating). It never
// takes the runtime lock and is quiet (core.Peek): the table's
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
// harness serve mode) under the runtime lock, so it is serialized with
// runtime fences and sees a quiesced runtime. The hook alone decides
// where state is written.
func (e *Engine) Snapshot() error {
	if e.memo == nil || e.cfg.Save == nil {
		return ErrNoPersistence
	}
	e.life.RLock()
	defer e.life.RUnlock()
	if e.closed {
		return ErrClosed
	}
	return e.save()
}

// Close waits for every request and Snapshot that passed its closed
// check before it, on either path, then stops the periodic saver, runs
// a final save (when configured) and stops the runtime; requests and
// Snapshots after it get ErrClosed. It returns the final save's error,
// if any, and so does every later Close, once the first has returned.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		e.life.Lock()
		e.closed = true
		e.life.Unlock()
		if e.stopSaves != nil {
			close(e.stopSaves)
			<-e.savesDone
		}
		if e.cfg.Save != nil {
			_ = e.save()
		}
		e.rt.Close()
	})
	return e.SaveErr()
}

// save runs the Save hook under the runtime lock.
func (e *Engine) save() error {
	e.rtMu.Lock()
	err := e.cfg.Save()
	e.rtMu.Unlock()
	if err != nil {
		e.setSaveErr(err)
	} else {
		e.saves.Add(1)
	}
	return err
}

// saveEvery is the periodic saver: it runs save every cfg.SaveEvery
// until Close stops it.
func (e *Engine) saveEvery() {
	defer close(e.savesDone)
	t := time.NewTicker(e.cfg.SaveEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = e.save()
		case <-e.stopSaves:
			return
		}
	}
}
