package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"atm/internal/metrics"
)

// The wire API (documented in docs/service.md):
//
//	POST /v1/submit    JSON {"tasks":[{"kind":"...","input":[...]}]} or
//	                   binary application/x-atm-tasks; answered on the
//	                   handler goroutine, through core.Serve when every
//	                   task is memoizable and of a steady type (hits
//	                   copied, misses run there), else as one SubmitBatch
//	                   under the runtime lock.
//	                   A per-task "tenant" field (or the X-ATM-Tenant
//	                   header for the whole request) selects the
//	                   memoization namespace.
//	GET  /v1/lookup    ?kind=...&input=1,2,... (or &key=N&seed=S):
//	                   memoization probe, never executes and leaves the
//	                   table as it found it; &tenant= (or X-ATM-Tenant)
//	                   scopes the probe.
//	POST /v1/snapshot  empty body or {}: run the configured save (409
//	                   without one).
//	GET  /v1/stats     JSON operational counters + ATM statistics.
//	GET  /metrics      Prometheus text format.
//	GET  /healthz      liveness.
//
// Overload is shed with 429 + Retry-After; malformed bodies get 400.

// tenantHeader is X-ATM-Tenant in the canonical spelling net/http keys
// headers by, so looking it up does not allocate a canonicalized copy.
const tenantHeader = "X-Atm-Tenant"

// maxBodyBytes bounds a submit body (64 tasks of the largest kind fit
// in well under 1 MiB of JSON; 8 MiB leaves generous headroom).
const maxBodyBytes = 8 << 20

type errorResponse struct {
	Error string `json:"error"`
}

// StatsResponse is the GET /v1/stats JSON shape: the engine's
// operational counters plus the ATM totals the repository benchmark
// diffs (FetchStats, Sub) to compute warm-hit ratios.
type StatsResponse struct {
	Requests     int64 `json:"requests"`
	Tasks        int64 `json:"tasks"`
	ShedRequests int64 `json:"shed_requests"`
	ShedTasks    int64 `json:"shed_tasks"`
	Batches      int64 `json:"batches"`
	Lookups      int64 `json:"lookups"`
	LookupHits   int64 `json:"lookup_hits"`
	Saves        int64 `json:"saves"`
	Queued       int64 `json:"queued"`
	BacklogLimit int64 `json:"backlog_limit"`

	// InlineRequests / InlineTasks are the part of Requests / Tasks served
	// by core.Serve, hits and misses, without the runtime.
	InlineRequests int64 `json:"inline_requests"`
	InlineTasks    int64 `json:"inline_tasks"`

	Memoizing   bool   `json:"memoizing"`
	ATMTasks    int64  `json:"atm_tasks"`
	ATMExecuted int64  `json:"atm_executed"`
	MemoTHT     int64  `json:"memo_tht"`
	MemoIKT     int64  `json:"memo_ikt"`
	THTEntries  int64  `json:"tht_entries"`
	THTBytes    int64  `json:"tht_bytes"`
	THTLookups  int64  `json:"tht_lookups"`
	THTHits     int64  `json:"tht_hits"`
	IKTDefers   int64  `json:"ikt_defers"`
	SaveError   string `json:"save_error,omitempty"`

	// Budget / eviction state (zero when the THT is unbounded):
	// THTEvictions counts every displaced entry, THTBudgetEvictions
	// the subset forced by the byte budget, THTAdmissionRejects inserts
	// refused at admission.
	THTBudgetBytes      int64 `json:"tht_budget_bytes,omitempty"`
	THTEvictions        int64 `json:"tht_evictions"`
	THTBudgetEvictions  int64 `json:"tht_budget_evictions"`
	THTAdmissionRejects int64 `json:"tht_admission_rejects"`
}

// WarmHitRatio is the fraction of ATM-visible tasks served without
// execution — the service's headline cache effectiveness number.
func (s StatsResponse) WarmHitRatio() float64 {
	if s.ATMTasks == 0 {
		return 0
	}
	return float64(s.MemoTHT+s.MemoIKT) / float64(s.ATMTasks)
}

// FetchStats GETs url's /v1/stats.
func FetchStats(client *http.Client, url string) (StatsResponse, error) {
	var s StatsResponse
	resp, err := client.Get(url + "/v1/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("stats: HTTP %d", resp.StatusCode)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// Sub returns s - prev counter-wise: the diff across one benchmark
// phase.
func (s StatsResponse) Sub(prev StatsResponse) StatsResponse {
	d := s
	d.Requests -= prev.Requests
	d.Tasks -= prev.Tasks
	d.ShedRequests -= prev.ShedRequests
	d.ShedTasks -= prev.ShedTasks
	d.Batches -= prev.Batches
	d.InlineRequests -= prev.InlineRequests
	d.InlineTasks -= prev.InlineTasks
	d.Lookups -= prev.Lookups
	d.LookupHits -= prev.LookupHits
	d.Saves -= prev.Saves
	d.ATMTasks -= prev.ATMTasks
	d.ATMExecuted -= prev.ATMExecuted
	d.MemoTHT -= prev.MemoTHT
	d.MemoIKT -= prev.MemoIKT
	d.THTLookups -= prev.THTLookups
	d.THTHits -= prev.THTHits
	d.IKTDefers -= prev.IKTDefers
	d.THTEvictions -= prev.THTEvictions
	d.THTBudgetEvictions -= prev.THTBudgetEvictions
	d.THTAdmissionRejects -= prev.THTAdmissionRejects
	return d
}

// Server is the HTTP front-end over an Engine.
type Server struct {
	e     *Engine
	mux   *http.ServeMux
	start time.Time

	submitLat *metrics.Histogram
	lookupLat *metrics.Histogram
	// routes holds the instrumented routes in the order /metrics lists
	// them, by name.
	routes []*route
}

// statusCodes are the codes a handler can answer with (writeError's
// four, 200, and the snapshot route's 409), ascending.
var statusCodes = [...]int{
	http.StatusOK, http.StatusBadRequest, http.StatusConflict,
	http.StatusTooManyRequests, http.StatusInternalServerError, http.StatusServiceUnavailable,
}

// route is one instrumented route: a request counter per status code
// and an optional latency histogram. A status outside statusCodes is
// counted in other (code="other" on /metrics), so a handler that grows a
// new status shows up there instead of vanishing from the counters.
type route struct {
	name  string
	lat   *metrics.Histogram
	codes [len(statusCodes)]atomic.Int64
	other atomic.Int64
}

// handlerFunc is an http.HandlerFunc that returns the status it wrote.
type handlerFunc func(http.ResponseWriter, *http.Request) int

// NewServer wires the routes for an engine. The returned Server is an
// http.Handler.
func NewServer(e *Engine) *Server {
	s := &Server{
		e:         e,
		mux:       http.NewServeMux(),
		start:     time.Now(),
		submitLat: &metrics.Histogram{},
		lookupLat: &metrics.Histogram{},
	}
	s.handle("GET /v1/lookup", "lookup", s.lookupLat, s.handleLookup)
	s.handle("GET /metrics", "metrics", nil, s.handleMetrics)
	s.handle("POST /v1/snapshot", "snapshot", nil, s.handleSnapshot)
	s.handle("GET /v1/stats", "stats", nil, s.handleStats)
	s.handle("POST /v1/submit", "submit", s.submitLat, s.handleSubmit)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, "ok\n")
	})
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// handle registers an instrumented route.
func (s *Server) handle(pattern, name string, lat *metrics.Histogram, h handlerFunc) {
	rt := &route{name: name, lat: lat}
	s.routes = append(s.routes, rt)
	s.mux.HandleFunc(pattern, rt.instrument(h))
}

// instrument wraps a handler with the route's code counter and latency
// histogram.
func (rt *route) instrument(h handlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		code := h(w, r)
		if rt.lat != nil {
			rt.lat.Observe(time.Since(t0))
		}
		for i, c := range statusCodes {
			if c == code {
				rt.codes[i].Add(1)
				return
			}
		}
		rt.other.Add(1)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
	return code
}

// writeError maps engine errors onto the HTTP status contract:
// validation failures 400, overload 429 + Retry-After, shutdown 503,
// anything else 500.
func writeError(w http.ResponseWriter, err error) int {
	var bad *BadTaskError
	var over *OverloadError
	switch {
	case errors.As(err, &bad):
		return writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
	case errors.As(err, &over):
		// Shed, don't queue: the client owns the retry. One second is
		// long enough for the engine to drain a full watermark of the
		// cheap kinds many times over.
		w.Header().Set("Retry-After", "1")
		return writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
	case errors.Is(err, ErrClosed):
		return writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
	default:
		return writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	}
}

// readTasks reads the request's body and decodes it into q.
func (s *Server) readTasks(w http.ResponseWriter, r *http.Request, q *request) (err error) {
	q.body, err = readBody(http.MaxBytesReader(w, r.Body, maxBodyBytes), q.body, r.ContentLength)
	if err != nil {
		return &BadTaskError{msg: "body: " + err.Error()}
	}
	// The X-ATM-Tenant header scopes the whole request; a JSON task's
	// own tenant overrides it, the binary encoding carries none.
	tenant := r.Header.Get(tenantHeader)
	if strings.HasPrefix(r.Header.Get("Content-Type"), binaryContentType) {
		q.taskBuf, q.in, err = decodeBinaryTasks(s.e.kinds, q.body, tenant, q.taskBuf, q.in)
	} else {
		q.taskBuf, q.in, err = decodeJSONTasks(s.e.kinds, q.body, tenant, q.taskBuf, q.in)
	}
	return err
}

// handleSubmit reads, decodes, runs and answers one submit request out
// of one pooled request's memory.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) int {
	e := s.e
	q := e.getRequest()
	if err := s.readTasks(w, r, q); err != nil {
		e.release(q)
		return writeError(w, err)
	}
	q.tasks = q.taskBuf
	// Held from the closed check to the reply, so Close waits for it.
	e.life.RLock()
	defer e.life.RUnlock()
	if err := e.submit(q); err != nil {
		return writeError(w, err)
	}
	defer e.release(q)
	// The whole reply is built before the status line goes out, so a
	// value JSON cannot carry is a clean 500, and the length is known.
	var err error
	if q.reply, err = appendSubmitReply(q.reply[:0], q.outs, q.group); err != nil {
		return writeError(w, err)
	}
	return writeReply(w, q.reply)
}

// writeReply sends a 200 whose JSON body was built whole, with its
// length declared.
func writeReply(w http.ResponseWriter, body []byte) int {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // a client that went away is not the server's error
	return http.StatusOK
}

func (s *Server) handleLookup(w http.ResponseWriter, r *http.Request) int {
	q := r.URL.Query()
	kind := q.Get("kind")
	var input []float64
	switch {
	case q.Get("input") != "":
		for _, f := range strings.Split(q.Get("input"), ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return writeError(w, &BadTaskError{msg: "bad input value: " + err.Error()})
			}
			input = append(input, v)
		}
	case q.Get("key") != "":
		key, err := strconv.ParseUint(q.Get("key"), 10, 64)
		if err != nil {
			return writeError(w, &BadTaskError{msg: "bad key: " + err.Error()})
		}
		var seed uint64
		if sstr := q.Get("seed"); sstr != "" {
			if seed, err = strconv.ParseUint(sstr, 10, 64); err != nil {
				return writeError(w, &BadTaskError{msg: "bad seed: " + err.Error()})
			}
		}
		k, ok := s.e.Kind(kind)
		if !ok {
			return writeError(w, &BadTaskError{msg: fmt.Sprintf("unknown kind %q", kind)})
		}
		input = Input(k, key, seed)
	default:
		return writeError(w, &BadTaskError{msg: "lookup needs ?input=... or ?key=..."})
	}
	tenant := q.Get("tenant")
	if tenant == "" {
		tenant = r.Header.Get(tenantHeader)
	}
	out, hit, err := s.e.LookupTenant(tenant, kind, input, nil)
	if err != nil {
		return writeError(w, err)
	}
	// Built by the submit route's encoder, so a memoized vector reads the
	// same from either route, and one it cannot carry is a 500 here too.
	reply, err := appendLookupReply(make([]byte, 0, 32+24*len(out)), hit, out)
	if err != nil {
		return writeError(w, err)
	}
	return writeReply(w, reply)
}

// handleSnapshot runs the engine's configured save. The server, not the
// client, decides where state is written, so the body is empty or {}
// and any other body — one naming a path included — is refused before
// anything is saved.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) int {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<16))
	if err != nil {
		return writeError(w, &BadTaskError{msg: "body: " + err.Error()})
	}
	if b := strings.TrimSpace(string(body)); b != "" && b != "{}" {
		return writeError(w, &BadTaskError{msg: "snapshot body must be empty or {}"})
	}
	if err := s.e.Snapshot(); err != nil {
		if errors.Is(err, ErrNoPersistence) {
			return writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
		}
		return writeError(w, err)
	}
	return writeJSON(w, http.StatusOK, map[string]any{"saved": true})
}

// BuildStats assembles the GET /v1/stats JSON.
func (s *Server) BuildStats() StatsResponse {
	c := s.e.Counters()
	resp := StatsResponse{
		Requests: c.Requests, Tasks: c.Tasks,
		ShedRequests: c.ShedRequests, ShedTasks: c.ShedTasks,
		Batches: c.Batches, InlineRequests: c.InlineRequests, InlineTasks: c.InlineTasks,
		Lookups: c.Lookups, LookupHits: c.LookupHits,
		Saves: c.Saves, Queued: c.Queued, BacklogLimit: c.BacklogLimit,
		Memoizing: s.e.Memoizing(),
	}
	if err := s.e.SaveErr(); err != nil {
		resp.SaveError = err.Error()
	}
	st := s.e.Stats()
	for _, ts := range st.Types {
		resp.ATMTasks += ts.Tasks
		resp.ATMExecuted += ts.Executed
		resp.MemoTHT += ts.MemoizedTHT
		resp.MemoIKT += ts.MemoizedIKT
	}
	resp.THTEntries = st.THTEntries
	resp.THTBytes = st.THTBytes
	resp.THTLookups = st.THTLookups
	resp.THTHits = st.THTHits
	resp.IKTDefers = st.IKTDefers
	resp.THTBudgetBytes = st.THTBudgetBytes
	resp.THTEvictions = st.THTEvictions
	resp.THTBudgetEvictions = st.THTBudgetEvictions
	resp.THTAdmissionRejects = st.THTAdmissionRejects
	return resp
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) int {
	return writeJSON(w, http.StatusOK, s.BuildStats())
}

// handleMetrics renders the Prometheus exposition: the engine and HTTP
// counters plus the ATM per-type and table statistics (the metrics
// catalog of docs/service.md).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) int {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := metrics.NewProm(w)
	c := s.e.Counters()

	p.Family("atmd_requests_total", "counter", "HTTP requests by route and status code.")
	for _, rt := range s.routes {
		for i, code := range statusCodes {
			if n := rt.codes[i].Load(); n > 0 {
				p.Sample("atmd_requests_total",
					[]metrics.Label{{Name: "route", Value: rt.name}, {Name: "code", Value: strconv.Itoa(code)}},
					float64(n))
			}
		}
		if n := rt.other.Load(); n > 0 {
			p.Sample("atmd_requests_total",
				[]metrics.Label{{Name: "route", Value: rt.name}, {Name: "code", Value: "other"}},
				float64(n))
		}
	}

	p.Family("atmd_tasks_total", "counter", "Tasks served through /v1/submit, by core.Serve or through the task runtime.")
	p.Sample("atmd_tasks_total", nil, float64(c.Tasks))
	p.Family("atmd_inline_requests_total", "counter", "Submit requests by how they ran: served by core.Serve (every task memoizable and steady; hits copied, misses run on the handler), or fallback to the task runtime under its lock.")
	p.Sample("atmd_inline_requests_total", []metrics.Label{{Name: "outcome", Value: "served"}}, float64(c.InlineRequests))
	p.Sample("atmd_inline_requests_total", []metrics.Label{{Name: "outcome", Value: "fallback"}}, float64(c.Requests-c.InlineRequests))
	p.Family("atmd_shed_tasks_total", "counter", "Tasks shed at the admission watermark (429).")
	p.Sample("atmd_shed_tasks_total", nil, float64(c.ShedTasks))
	p.Family("atmd_batches_total", "counter", "Groups run to completion: one per served submit request, so it equals the request count.")
	p.Sample("atmd_batches_total", nil, float64(c.Batches))
	p.Family("atmd_snapshot_saves_total", "counter", "Completed snapshot saves.")
	p.Sample("atmd_snapshot_saves_total", nil, float64(c.Saves))
	p.Family("atmd_queue_tasks", "gauge", "Tasks admitted but not yet completed.")
	p.Sample("atmd_queue_tasks", nil, float64(c.Queued))
	p.Family("atmd_backlog_limit_tasks", "gauge", "Current admission watermark (adaptive unless -backlog fixed it).")
	p.Sample("atmd_backlog_limit_tasks", nil, float64(c.BacklogLimit))
	p.Family("atmd_uptime_seconds", "gauge", "Seconds since the server started.")
	p.Sample("atmd_uptime_seconds", nil, time.Since(s.start).Seconds())

	p.Family("atmd_submit_seconds", "histogram", "Server-side /v1/submit latency.")
	p.LatencyHistogram("atmd_submit_seconds", nil, s.submitLat)
	p.Family("atmd_lookup_seconds", "histogram", "Server-side /v1/lookup latency.")
	p.LatencyHistogram("atmd_lookup_seconds", nil, s.lookupLat)

	st := s.e.Stats()
	p.Family("atm_type_tasks_total", "counter", "ATM-visible tasks by type.")
	p.Family("atm_type_executed_total", "counter", "Tasks whose body ran, by type.")
	p.Family("atm_type_memo_tht_total", "counter", "Tasks served from the THT, by type.")
	p.Family("atm_type_memo_ikt_total", "counter", "Tasks deduplicated in flight, by type.")
	p.Family("atm_type_level", "gauge", "Current p level by type (p = 2^(level-15)).")
	for _, ts := range st.Types {
		l := []metrics.Label{{Name: "type", Value: ts.Name}}
		p.Sample("atm_type_tasks_total", l, float64(ts.Tasks))
		p.Sample("atm_type_executed_total", l, float64(ts.Executed))
		p.Sample("atm_type_memo_tht_total", l, float64(ts.MemoizedTHT))
		p.Sample("atm_type_memo_ikt_total", l, float64(ts.MemoizedIKT))
		p.Sample("atm_type_level", l, float64(ts.Level))
	}
	p.Family("atm_tht_entries", "gauge", "Task History Table entries.")
	p.Sample("atm_tht_entries", nil, float64(st.THTEntries))
	p.Family("atm_tht_bytes", "gauge", "Task History Table payload bytes.")
	p.Sample("atm_tht_bytes", nil, float64(st.THTBytes))
	p.Family("atm_tht_lookups_total", "counter", "THT lookups.")
	p.Sample("atm_tht_lookups_total", nil, float64(st.THTLookups))
	p.Family("atm_tht_hits_total", "counter", "THT hits.")
	p.Sample("atm_tht_hits_total", nil, float64(st.THTHits))
	p.Family("atm_tht_evictions_total", "counter", "THT evictions (ring replacements and budget evictions).")
	p.Sample("atm_tht_evictions_total", nil, float64(st.THTEvictions))
	p.Family("atm_tht_budget_bytes", "gauge", "Configured THT memory budget (0 = unbounded).")
	p.Sample("atm_tht_budget_bytes", nil, float64(st.THTBudgetBytes))
	p.Family("atm_tht_budget_evictions_total", "counter", "THT evictions forced by the memory budget.")
	p.Sample("atm_tht_budget_evictions_total", nil, float64(st.THTBudgetEvictions))
	p.Family("atm_tht_admission_rejects_total", "counter", "THT inserts rejected at admission (budget or TinyLFU duel).")
	p.Sample("atm_tht_admission_rejects_total", nil, float64(st.THTAdmissionRejects))
	p.Family("atm_ikt_inserts_total", "counter", "In-flight Key Table inserts.")
	p.Sample("atm_ikt_inserts_total", nil, float64(st.IKTInserts))
	p.Family("atm_ikt_defers_total", "counter", "Tasks deferred to an in-flight provider.")
	p.Sample("atm_ikt_defers_total", nil, float64(st.IKTDefers))
	_ = p.Err()
	return http.StatusOK
}
