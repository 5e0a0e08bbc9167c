package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"atm/internal/core"
	"atm/internal/harness"
	"atm/internal/hashx"
	"atm/internal/persist"
	"atm/internal/region"
	"atm/internal/service"
	"atm/internal/taskrt"
)

// The traced run. The same request stream the real atmd was sent is
// replayed, one request at a time, against a fresh in-process stack at
// each depth of the request path:
//
//	client.roundtrip   loopback HTTP client -> httptest server
//	service.http       Server.ServeHTTP on a recorder
//	service.engine     Engine.Do
//	taskrt.submit_wait bare SubmitBatch + Wait with the core memoizer
//	core.leaf          ATM.Peek per task, Kind.Fn on a miss
//
// Every depth gets the same fill and then the same requests, so every
// depth sees the same history. Each call is a span; a layer's self time
// is the per-request median of its span minus the next-deeper depth's
// span for the same request. All spans are recorded here, around the
// calls into each layer: nothing inside the program is instrumented.

// span is one timed call. Parent names the next-outer depth's span of
// the same request.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) add(name, parent string, req int, start, end time.Time) {
	t.spans = append(t.spans, span{name, req, parent, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()})
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func atmConfig(zipf bool) core.Config {
	cfg := core.Config{Mode: core.ModeDynamic}
	if zipf {
		cfg.THTBudgetBytes = zipfBudget
	}
	return cfg
}

// newEngine builds the service engine the way atmd does for the
// workload, minus persistence.
func newEngine(zipf bool) *service.Engine {
	opt := harness.RunOptions{}
	if zipf {
		opt.THTBudgetBytes = zipfBudget
	}
	eng, _ := harness.Serve(harness.Dynamic(true), opt, service.Config{Workers: 1})
	return eng
}

// bare is a task runtime with the core memoizer and the service kinds
// registered as the engine registers them: everything under Engine.Do.
type bare struct {
	rt      *taskrt.Runtime
	memo    *core.ATM
	types   map[string]*taskrt.TaskType
	kinds   map[string]service.Kind
	batches int
}

func newBare(memo *core.ATM) *bare {
	b := &bare{memo: memo, types: map[string]*taskrt.TaskType{}, kinds: map[string]service.Kind{}}
	b.rt = taskrt.New(taskrt.Config{Workers: 1, Memoizer: memo})
	for _, k := range service.Kinds() {
		b.kinds[k.Name] = k
		b.types[k.Name] = b.rt.RegisterType(taskrt.TypeConfig{
			Name:    k.TypeName(),
			Memoize: k.Memoize,
			Run:     func(t *taskrt.Task) { k.Fn(t.Float64s(0), t.Float64s(1)) },
		})
	}
	return b
}

func (b *bare) entries(tasks []service.Task) []taskrt.BatchEntry {
	es := make([]taskrt.BatchEntry, len(tasks))
	for i, t := range tasks {
		es[i] = taskrt.Desc(b.types[t.Kind], taskrt.In(region.WrapFloat64(t.Input)),
			taskrt.Out(region.NewFloat64(b.kinds[t.Kind].Out)))
	}
	return es
}

// run is the engine loop's inner step: one batch to its fence.
func (b *bare) run(es []taskrt.BatchEntry) {
	b.rt.SubmitBatch(es)
	b.rt.Wait()
}

// tidy drops dead dependence state on the engine's cadence, outside
// any timed region, as the engine does it after replying.
func (b *bare) tidy() {
	if b.batches++; b.batches%64 == 0 {
		b.rt.Reset()
	}
}

// replay is one workload's traced replay.
type replay struct {
	s        *stream
	zipf     bool
	fillRefs [][]taskRef // what every depth is warmed with
	fill     [][]service.Task
	refs     [][]taskRef // the timed requests
	reqs     [][]service.Task
	tr       *tracer
	byReq    map[string][]time.Duration // span name -> duration per request
}

func newReplay(spec serveSpec, seed uint64, size sizing) *replay {
	n := size.replay
	r := &replay{s: newStream(seed, spec.binary, spec.zipf, size.hotKeys), zipf: spec.zipf,
		tr: &tracer{t0: time.Now()}, byReq: map[string][]time.Duration{}}
	r.fillRefs = r.s.hotSet()
	if spec.zipf {
		// Enough inserts to put the table at its budget before timing.
		r.fillRefs = make([][]taskRef, 3*n/2)
		for i := range r.fillRefs {
			r.fillRefs[i] = r.s.request(uint64(i), nil)
		}
	}
	expand := func(refs []taskRef) []service.Task {
		tasks := make([]service.Task, len(refs))
		for i, t := range refs {
			tasks[i] = r.s.task(t)
		}
		return tasks
	}
	for _, refs := range r.fillRefs {
		r.fill = append(r.fill, expand(refs))
	}
	for i := 0; i < n; i++ {
		refs := r.s.request(uint64(len(r.fillRefs)+i), nil)
		r.refs = append(r.refs, refs)
		r.reqs = append(r.reqs, expand(refs))
	}
	return r
}

func (r *replay) record(name, parent string, req int, start, end time.Time) {
	r.tr.add(name, parent, req, start, end)
	r.byReq[name] = append(r.byReq[name], end.Sub(start))
}

// roundTrips replays through a loopback HTTP server and returns the
// pass's wall time. With traced false no span is kept: the difference
// between the two passes is what tracing costs.
func (r *replay) roundTrips(traced bool) (time.Duration, error) {
	eng := newEngine(r.zipf)
	defer eng.Close()
	ts := httptest.NewServer(service.NewServer(eng))
	defer ts.Close()
	hc := ts.Client()
	post := func(tasks []taskRef, buf []byte) ([]byte, error) {
		buf = r.s.body(tasks, buf)
		resp, err := hc.Post(ts.URL+"/v1/submit", r.s.contentType(), bytes.NewReader(buf))
		if err != nil {
			return buf, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("replay: HTTP %d", resp.StatusCode)
		}
		return buf, err
	}
	var buf []byte
	var err error
	for _, refs := range r.fillRefs {
		if buf, err = post(refs, buf); err != nil {
			return 0, err
		}
	}
	begin := time.Now()
	for i, refs := range r.refs {
		t0 := time.Now()
		if buf, err = post(refs, buf); err != nil {
			return 0, err
		}
		if traced {
			r.record("client.roundtrip", "", i, t0, time.Now())
		}
	}
	return time.Since(begin), nil
}

// handler replays through Server.ServeHTTP on a recorder: the HTTP
// front-end without a socket. The Go heap is sampled around it.
func (r *replay) handler(res *result) error {
	eng := newEngine(r.zipf)
	defer eng.Close()
	srv := service.NewServer(eng)
	// serve answers one request; i < 0 marks the untimed fill.
	serve := func(i int, tasks []taskRef) error {
		req := httptest.NewRequest(http.MethodPost, "/v1/submit", bytes.NewReader(r.s.body(tasks, nil)))
		req.Header.Set("Content-Type", r.s.contentType())
		rec := httptest.NewRecorder()
		t0 := time.Now()
		srv.ServeHTTP(rec, req)
		if i >= 0 {
			r.record("service.http", "client.roundtrip", i, t0, time.Now())
		}
		if rec.Code != http.StatusOK {
			return fmt.Errorf("replay: ServeHTTP answered %d", rec.Code)
		}
		return nil
	}
	for _, refs := range r.fillRefs {
		if err := serve(-1, refs); err != nil {
			return err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, refs := range r.refs {
		if err := serve(i, refs); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	n := float64(len(r.refs))
	res.set("go.alloc_bytes_per_req", float64(m1.TotalAlloc-m0.TotalAlloc)/n)
	res.set("go.mallocs_per_req", float64(m1.Mallocs-m0.Mallocs)/n)
	res.set("go.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
	return nil
}

// engine replays through Engine.Do: the coalescing loop without HTTP.
func (r *replay) engine() error {
	eng := newEngine(r.zipf)
	defer eng.Close()
	for _, tasks := range r.fill {
		if _, _, err := eng.Do(tasks); err != nil {
			return err
		}
	}
	for i, tasks := range r.reqs {
		t0 := time.Now()
		_, _, err := eng.Do(tasks)
		r.record("service.engine", "service.http", i, t0, time.Now())
		if err != nil {
			return err
		}
	}
	return nil
}

// warmBare builds a bare runtime and runs the fill through it.
func (r *replay) warmBare() *bare {
	b := newBare(core.New(atmConfig(r.zipf)))
	for _, tasks := range r.fill {
		b.run(b.entries(tasks))
		b.tidy()
	}
	return b
}

// runtime replays through a bare runtime: SubmitBatch to the fence,
// with the batch entries built outside the span, as engine work.
func (r *replay) runtime(res *result) {
	b := r.warmBare()
	defer b.rt.Close()
	for i, tasks := range r.reqs {
		es := b.entries(tasks)
		t0 := time.Now()
		b.run(es)
		r.record("taskrt.submit_wait", "service.engine", i, t0, time.Now())
		b.tidy()
	}
	st := b.memo.Stats()
	var tasks, level float64
	var hash, cp time.Duration
	for _, ts := range st.Types {
		tasks += float64(ts.Tasks)
		hash += ts.HashTime
		cp += ts.CopyTime
		level += float64(ts.Level)
	}
	if tasks > 0 {
		res.set("core.hash_us_per_task", us(hash)/tasks)
		res.set("core.copy_us_per_task", us(cp)/tasks)
	}
	if len(st.Types) > 0 {
		res.set("core.level_mean", level/float64(len(st.Types)))
	}
}

// leaves replays each task against the table directly: a Peek, and on
// a miss the kernel, which is then submitted untimed so that the table
// has the history the outer depths' tables have.
func (r *replay) leaves(res *result) {
	b := r.warmBare()
	defer b.rt.Close()
	var hits []time.Duration
	for i, tasks := range r.reqs {
		var total time.Duration
		for _, t := range tasks {
			k := b.kinds[t.Kind]
			out := region.NewFloat64(k.Out)
			ins, outs := []region.Region{region.WrapFloat64(t.Input)}, []region.Region{out}
			t0 := time.Now()
			hit := b.memo.Peek(b.types[t.Kind], ins, outs)
			t1 := time.Now()
			total += t1.Sub(t0)
			r.tr.add("core.peek", "taskrt.submit_wait", i, t0, t1)
			if hit {
				hits = append(hits, t1.Sub(t0))
				continue
			}
			t0 = time.Now()
			k.Fn(t.Input, out.Data)
			t1 = time.Now()
			total += t1.Sub(t0)
			r.tr.add("kernel.exec", "taskrt.submit_wait", i, t0, t1)
			b.run(b.entries([]service.Task{t}))
			b.tidy()
		}
		r.byReq["core.leaf"] = append(r.byReq["core.leaf"], total)
	}
	res.set("core.hit_us", us(quantile(hits, 0.5)))
}

// selfTime is the per-request median of outer − inner.
func (r *replay) selfTime(outer, inner string) time.Duration {
	o, in := r.byReq[outer], r.byReq[inner]
	d := make([]time.Duration, len(o))
	for i := range o {
		d[i] = o[i]
		if in != nil {
			d[i] -= in[i]
		}
	}
	return quantile(d, 0.5)
}

// traceServe runs the replay for one serve workload and derives the
// self-time ledger.
func traceServe(e env, spec serveSpec, seed uint64, res *result) error {
	r := newReplay(spec, seed, e.size)
	n := len(r.refs)
	untraced, err := r.roundTrips(false)
	if err != nil {
		return err
	}
	traced, err := r.roundTrips(true)
	if err != nil {
		return err
	}
	if err := r.handler(res); err != nil {
		return err
	}
	if err := r.engine(); err != nil {
		return err
	}
	r.runtime(res)
	r.leaves(res)

	net := r.selfTime("client.roundtrip", "service.http")
	http := r.selfTime("service.http", "service.engine")
	eng := r.selfTime("service.engine", "taskrt.submit_wait")
	rt := r.selfTime("taskrt.submit_wait", "core.leaf")
	leaf := r.selfTime("core.leaf", "")
	round := quantile(r.byReq["client.roundtrip"], 0.5)
	sum := net + http + eng + rt + leaf
	res.set("service.net_self_us", us(net))
	res.set("service.http_self_us", us(http))
	res.set("service.engine_self_us", us(eng))
	res.set("taskrt.self_us", us(rt))
	res.set("core.leaf_us", us(leaf))
	res.set("taskrt.submit_wait_us_b4", us(quantile(r.byReq["taskrt.submit_wait"], 0.5))/float64(r.s.batch))
	res.set("trace.self_sum_ratio", float64(sum)/float64(max(round, 1)))
	res.set("trace.overhead_pct", 100*(traced.Seconds()-untraced.Seconds())/untraced.Seconds())
	res.note("replay of %d requests: self times net %.1f + http %.1f + engine %.1f + taskrt %.1f + leaf %.1f = %.1f us; measured round trip %.1f us; ratio %.3f (want 0.9–1.1)",
		n, us(net), us(http), us(eng), us(rt), us(leaf), us(sum), us(round), float64(sum)/float64(max(round, 1)))

	path := filepath.Join(e.work, fmt.Sprintf("spans-%s-seed%d.jsonl", spec.name, seed))
	if err := r.tr.write(path); err != nil {
		return err
	}
	res.note("%d spans written to %s", len(r.tr.spans), path)
	return nil
}

// traceMicro times the leaf layers on their own: the hash at two input
// sizes, each kernel, and a wide warm batch through the bare runtime.
func traceMicro(seed uint64, res *result) {
	h := hashx.New(hashx.Lookup3, seed)
	for _, c := range []struct {
		name   string
		floats int
	}{{"hashx.lookup3_gbps_640b", 80}, {"hashx.lookup3_gbps_64k", 8192}} {
		in := make([]float64, c.floats)
		for i := range in {
			in[i] = unit(splitmix64(seed + uint64(i)))
		}
		reps := (8 << 20) / (8 * c.floats)
		var sink uint64
		best := time.Duration(1 << 62)
		for trial := 0; trial < 5; trial++ {
			t0 := time.Now()
			for i := 0; i < reps; i++ {
				h.Reset()
				h.WriteFloat64s(in)
				sink += h.Sum64()
			}
			best = min(best, time.Since(t0))
		}
		hashSink = sink
		res.set(c.name, float64(reps*8*c.floats)/best.Seconds()/1e9)
	}

	for _, name := range memoKinds {
		k, _ := service.KindByName(name)
		in, out := service.Input(k, 1, seed), make([]float64, k.Out)
		var ds []time.Duration
		for i := 0; i < 300; i++ {
			t0 := time.Now()
			k.Fn(in, out)
			ds = append(ds, time.Since(t0))
		}
		res.set("kernel.exec_us."+name, us(quantile(ds, 0.5)))
	}

	b := newBare(core.New(atmConfig(false)))
	defer b.rt.Close()
	tasks := distinctTasks(512, 0, seed)
	var ds []time.Duration
	for i := 0; i < 40; i++ {
		es := b.entries(tasks)
		t0 := time.Now()
		b.run(es)
		ds = append(ds, time.Since(t0))
		b.rt.Reset()
	}
	// The first passes execute and train; the median is a warm pass.
	res.set("taskrt.submit_wait_us_b512", us(quantile(ds, 0.5))/float64(len(tasks)))
}

// distinctTasks returns n tasks with keys from first on, cycling
// through the memoizable kinds.
func distinctTasks(n int, first, seed uint64) []service.Task {
	tasks := make([]service.Task, n)
	for i := range tasks {
		k, _ := service.KindByName(memoKinds[i%len(memoKinds)])
		tasks[i] = service.Task{Kind: k.Name, Input: service.Input(k, first+uint64(i), seed)}
	}
	return tasks
}

var hashSink uint64 // keeps the hash loop's result live

// tracePersist times the chain layer on the chain the fill wrote: the
// load and restore a restart pays, and one delta append of fresh churn.
func tracePersist(chain string, spec serveSpec, res *result) error {
	t0 := time.Now()
	base, deltas, err := persist.LoadChain(chain)
	if err != nil {
		return err
	}
	memo, err := core.RestoreChain(atmConfig(spec.zipf), base, deltas)
	if err != nil {
		return err
	}
	res.set("persist.restore_ms", ms(time.Since(t0)))

	// Append to a copy: the real chain is what the restarts load.
	data, err := os.ReadFile(chain)
	if err != nil {
		return err
	}
	scratch := chain + ".append"
	if err := os.WriteFile(scratch, data, 0o644); err != nil {
		return err
	}
	memo.EnableDeltaTracking()
	b := newBare(memo)
	defer b.rt.Close()
	var appends []time.Duration
	fresh := uint64(1) << 40 // keys no stream ever draws: every task is new to the table
	for round := 0; round < 5; round++ {
		for i := 0; i < 64; i++ {
			b.run(b.entries(distinctTasks(tasksPerRequest, fresh, 1)))
			b.tidy()
			fresh += tasksPerRequest
		}
		t0 := time.Now()
		d, err := memo.SnapshotDelta()
		if err != nil {
			return err
		}
		if err := persist.AppendDeltaSync(scratch, d, persist.SyncOff); err != nil {
			return err
		}
		appends = append(appends, time.Since(t0))
	}
	res.set("persist.delta_append_ms", ms(quantile(appends, 0.5)))
	return nil
}
