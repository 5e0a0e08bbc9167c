package service

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"atm/internal/core"
	"atm/internal/region"
)

// Config configures a service Engine.
type Config struct {
	// Workers is ignored: every request runs on its caller's goroutine.
	Workers int
	// Memo is the ATM engine to memoize through; nil serves a plain
	// baseline (every task executes).
	Memo *core.ATM
	// Backlog fixes the admission watermark at this many tasks whose
	// bodies are running (0 = 4096).
	Backlog int
	// Save persists the memoization state; saves run one at a time.
	// Nil disables POST /v1/snapshot (409) and periodic saves.
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

// GroupStats is the ATM activity of one request, exactly its own, as
// core.Serve reports it: of its memoizable tasks, those that ran their
// body (misses and training tasks) are Executed and the rest MemoTHT.
type GroupStats struct {
	// Tasks is the request's ATM-visible task count; Executed of them
	// ran their body, MemoTHT were served from the history table.
	// MemoIKT, deduplication against an identical in-flight task, is
	// always 0: handlers take no IKT slot. It stays for the wire format.
	Tasks, Executed, MemoTHT, MemoIKT int64
}

// Counters is the engine's monotonic operational state.
type Counters struct {
	// Requests / Tasks count served work; Shed* count work refused at
	// the admission watermark (the 429 path).
	Requests, Tasks         int64
	ShedRequests, ShedTasks int64
	// Batches counts groups run to completion. Every request is one, so
	// it equals Requests; it stays because Tasks ÷ Batches is the
	// benchmark's tasks-per-batch figure. Lookups/LookupHits count the
	// Peek path; Saves completed snapshot saves.
	Batches, Lookups, LookupHits, Saves int64
	// Queued is the current count of admitted bodies still running;
	// BacklogLimit the admission watermark.
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
// served on its caller's goroutine by core.Serve: hits copied from the
// table, and misses, training tasks and non-memoizable tasks run right
// there. Admission control counts the bodies a request will run against
// a fixed watermark: a request that would push the running backlog past
// it is shed immediately (OverloadError), whole.
type Engine struct {
	cfg     Config
	backlog int64 // the admission watermark
	memo    *core.ATM
	kinds   map[string]Kind

	// types maps registered task-type names (tenant + "/" + kind) to
	// their core types: nil for a kind that is not memoizable, and for
	// every kind on a baseline engine. tenants tracks the distinct tenant
	// names ("" for the catalog) against cfg.MaxTenants. Guarded by
	// typeMu: the catalog tenant is registered at construction, other
	// tenants lazily at admission.
	typeMu  sync.RWMutex
	types   map[string]*core.Type
	tenants map[string]bool

	reqPool sync.Pool // *request: per-request memory, reused (size-capped in release)

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

	// saveMu serializes saves; a handler insert racing a save lands in
	// it or in the next (core's per-bucket log cut). errMu guards saveErr.
	saveMu  sync.Mutex
	errMu   sync.Mutex
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

	// types are the tasks' core types (nil when not memoizable); serve
	// and hitRegs are the task list core.Serve takes and its region
	// headers, pooled, because core.Serve never observes region identity.
	types   []*core.Type
	serve   []core.ServeTask
	hitRegs []hitRegions

	body    []byte    // HTTP body
	taskBuf []Task    // backing array of decoded tasks
	in      []float64 // input slab: decoded tasks' Input vectors point into it
	out     []float64 // output slab: outs point into it
	reply   []byte    // encoded HTTP reply
}

// hitRegions is one task's region headers for core (submit,
// LookupTenant) and the interface values pointing at them, so a
// core.ServeTask's one-element Ins and Outs are slices of ref.
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
	// ServeTask 104, a hitRegions 128.
	kept := cap(r.body) + cap(r.reply) + 8*(cap(r.in)+cap(r.out)) +
		56*cap(r.taskBuf) + 8*cap(r.types) + 24*cap(r.outs) +
		104*cap(r.serve) + 128*cap(r.hitRegs)
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
	r.tasks, r.group = nil, GroupStats{}
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
	backlog := int64(cfg.Backlog)
	if backlog <= 0 {
		backlog = 4096
	}
	e := &Engine{
		cfg:     cfg,
		backlog: backlog,
		memo:    cfg.Memo,
		kinds:   make(map[string]Kind, len(kindList)),
		kernels: make(map[string]func(ins, outs []region.Region), len(kindList)),
		types:   make(map[string]*core.Type, len(kindList)),
	}
	e.tenants = map[string]bool{}
	for _, k := range kindList {
		e.kinds[k.Name] = k
		e.kernels[k.Name] = kernel(k)
		// Registering at construction also installs restored type state:
		// snapshot sections install as core makes the types, and a server
		// should surface its warm-start entry count (and per-type
		// metrics) from construction, not from the first request.
		_, _ = e.registerType("", k) // the first tenant: MaxTenants ≥ 1 admits it
	}
	if cfg.Save != nil && cfg.SaveEvery > 0 {
		e.stopSaves, e.savesDone = make(chan struct{}), make(chan struct{})
		go e.saveEvery()
	}
	return e
}

// kernel adapts k's body to core.ServeTask.Run: one input and one output
// region, both hitRegions' Float64 headers. The output is cleared first:
// a kernel is not obliged to write every element, and the pooled slab
// holds an earlier request's floats.
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

// taskType returns the core type of (tenant, kind), and whether that
// pair was ever admitted.
func (e *Engine) taskType(tenant string, k Kind) (*core.Type, bool) {
	e.typeMu.RLock()
	tt, ok := e.types[typeName(tenant, k)]
	e.typeMu.RUnlock()
	return tt, ok
}

// registerType resolves (tenant, kind) to its core type, registering
// the pair (and the tenant) on first use. The MaxTenants cap is
// enforced here: a request naming one tenant too many is rejected
// before admission.
func (e *Engine) registerType(tenant string, k Kind) (*core.Type, error) {
	if tt, ok := e.taskType(tenant, k); ok {
		return tt, nil
	}
	e.typeMu.Lock()
	defer e.typeMu.Unlock()
	name := typeName(tenant, k)
	if tt, ok := e.types[name]; ok {
		return tt, nil
	}
	if !e.tenants[tenant] && len(e.tenants) >= e.cfg.MaxTenants {
		return nil, &BadTaskError{msg: fmt.Sprintf("tenant %q would exceed the %d-tenant limit", tenant, e.cfg.MaxTenants)}
	}
	var tt *core.Type
	if e.memo != nil && k.Memoize {
		tt = e.memo.NewType(name)
	}
	e.tenants[tenant] = true
	e.types[name] = tt
	return tt, nil
}

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
	reqs := e.requests.Load()
	return Counters{
		Requests:     reqs,
		Tasks:        e.tasks.Load(),
		ShedRequests: e.shedReqs.Load(),
		ShedTasks:    e.shedTask.Load(),
		Batches:      reqs,
		Lookups:      e.lookups.Load(),
		LookupHits:   e.lookHits.Load(),
		Saves:        e.saves.Load(),
		Queued:       e.queued.Load(),
		BacklogLimit: e.backlog,
	}
}

// SaveErr returns the most recent snapshot-save failure (periodic or
// requested), nil if none.
func (e *Engine) SaveErr() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.saveErr
}

func (e *Engine) setSaveErr(err error) {
	e.errMu.Lock()
	e.saveErr = err
	e.errMu.Unlock()
}

// resolveTypes checks a task group before admission and registers any
// new (tenant, kind) types it names. It returns the group's total output
// length.
func (e *Engine) resolveTypes(r *request) (nout int, err error) {
	if len(r.tasks) == 0 {
		return 0, &BadTaskError{msg: "empty task list"}
	}
	r.types = r.types[:0]
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

// Do submits a group of tasks and blocks until their outputs are
// ready. The group is admitted or shed atomically: on success every
// task's output vector is returned in order, plus the group's own ATM
// stats; past the watermark it returns *OverloadError without running
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

// submit serves r.tasks on the caller's goroutine and fills in r.outs
// and r.group. The request is admitted for the bodies it runs — misses,
// training tasks and non-memoizable tasks; every task on a baseline
// engine — against the watermark and for as long as they run; one that
// is all hits is never shed. The caller holds e.life shared until it has
// replied. On success the caller releases r once it has consumed r.outs
// and r.group; on error submit has disposed of r itself.
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
	e.carve(r, nout)
	n := len(r.tasks)
	if cap(r.serve) < n {
		r.serve = make([]core.ServeTask, n)
	}
	if cap(r.hitRegs) < n {
		r.hitRegs = make([]hitRegions, n)
	}
	r.serve, r.hitRegs = r.serve[:n], r.hitRegs[:n]
	memoizable := 0
	for j, t := range r.tasks {
		st := &r.serve[j]
		st.Type = r.types[j]
		st.Ins, st.Outs = r.hitRegs[j].set(t.Input, r.outs[j])
		st.Run = e.kernels[t.Kind]
		if st.Type != nil {
			memoizable++
		}
	}
	var admitted int64
	var over *OverloadError
	admit := func(bodies int) bool {
		admitted = int64(bodies)
		over = e.admit(admitted)
		return over == nil
	}
	if e.memo == nil {
		if admit(n) {
			for j := range r.serve {
				st := &r.serve[j]
				st.Run(st.Ins, st.Outs)
			}
		}
	} else {
		executed, _ := e.memo.Serve(r.serve, admit)
		r.group = GroupStats{Tasks: int64(memoizable), Executed: int64(executed), MemoTHT: int64(memoizable - executed)}
	}
	if over != nil {
		return e.shed(r, over)
	}
	e.queued.Add(-admitted)
	e.requests.Add(1)
	e.tasks.Add(int64(n))
	return nil
}

// admit counts n bodies into the backlog, or leaves it as it was and
// returns the overload when they would push it past the watermark.
func (e *Engine) admit(n int64) *OverloadError {
	if q := e.queued.Add(n); q > e.backlog {
		e.queued.Add(-n)
		return &OverloadError{Queued: q - n, Limit: e.backlog}
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
// (a caller that recycles dst looks up without allocating). It is
// quiet (core.PeekType): the table's
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
	tt, _ := e.taskType(tenant, k)
	if tt == nil {
		return nil, false, nil
	}
	if cap(dst) < k.Out {
		dst = make([]float64, k.Out)
	}
	dst = dst[:k.Out]
	// The region headers come from a pooled request, as submit's do.
	r := e.getRequest()
	if cap(r.hitRegs) == 0 {
		r.hitRegs = make([]hitRegions, 1)
	}
	r.hitRegs = r.hitRegs[:1]
	ins, outs := r.hitRegs[0].set(input, dst)
	hit := e.memo.PeekType(tt, ins, outs)
	e.release(r)
	if !hit {
		return nil, false, nil
	}
	e.lookHits.Add(1)
	return dst, true, nil
}

// Snapshot runs the configured Save hook (the delta-chain append under
// harness serve mode), after any save already running. The hook alone
// decides where state is written.
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
// check before it, then stops the periodic saver and runs a final save
// (when configured); requests and Snapshots after it get ErrClosed. It returns the final save's error,
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
	})
	return e.SaveErr()
}

// save runs the Save hook, one save at a time.
func (e *Engine) save() error {
	e.saveMu.Lock()
	err := e.cfg.Save()
	e.saveMu.Unlock()
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
