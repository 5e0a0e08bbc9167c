package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"atm/internal/service"
)

// serveSpec is one serve workload: a stream shape, the atmd flags it
// needs, and the fixed open-loop rate. Rates are ≈40 % of the
// closed-loop capacity measured on the builder's two-core box when the
// benchmark was defined (README.md, "Fixed rates"); they are part of the
// benchmark, not of the code under test, and never follow it.
type serveSpec struct {
	name   string
	binary bool
	zipf   bool
	rate   float64 // open-loop requests per second
}

var serveSpecs = []serveSpec{
	{name: "serve_hot_json", rate: 800},
	{name: "serve_hot_bin", binary: true, rate: 1400},
	{name: "serve_zipf_evict", binary: true, zipf: true, rate: 1100},
}

const (
	clients        = 2 // connections in flight, closed and open loop alike
	requestTimeout = 5 * time.Second
	sloLimit       = 10 * time.Millisecond
	auditEvery     = 64   // every 64th request is recomputed locally
	auditTolerance = 1e-9 // max relative error of an audited output
	p99Window      = 2 * time.Second
	lookupProbes   = 400
	zipfBudget     = 4 << 20 // bytes of THT payload: the key space is ~40× this
	zipfDeltaEvery = "2s"
)

// phasePlan splits a run's measured seconds between the closed and the
// open loop, after a warm-up of a tenth as long. A traced run measures
// for half as long, leaving the other half to the in-process replay.
type phasePlan struct {
	warm, closed, open time.Duration
}

func planFor(seconds float64, traced bool) phasePlan {
	total := time.Duration(seconds * float64(time.Second))
	if traced {
		total /= 2
	}
	closed := total * 2 / 5
	return phasePlan{warm: total / 10, closed: closed, open: total - closed}
}

// loadStats is what the generator saw in one phase.
type loadStats struct {
	attempted, ok, failed int64
	shed, audited         int64
	mismatched            int64
	reqBytes, respBytes   int64
	elapsed               time.Duration
	lat                   []sample // open loop only
	late                  []time.Duration
	firstErr              string
}

// sample is one open-loop request: when it was due and how long after
// that its reply was complete. Failed requests are not samples; they
// count against the SLO instead.
type sample struct {
	due time.Duration
	lat time.Duration
}

// loadgen drives one atmd with the stream's requests.
type loadgen struct {
	s   *stream
	hc  *http.Client
	url string
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxIdleConns: 2 * clients, MaxIdleConnsPerHost: 2 * clients},
	}
}

type submitReply struct {
	Results []struct {
		Output []float64 `json:"output"`
	} `json:"results"`
}

// clientBuf is one client goroutine's reusable scratch.
type clientBuf struct {
	refs []taskRef
	body []byte
	resp bytes.Buffer
}

// send posts the tasks and reports whether the reply was a 200 whose
// outputs, when audited, matched the local recomputation.
func (g *loadgen) send(tasks []taskRef, audit bool, b *clientBuf, st *loadStats) bool {
	st.attempted++
	b.body = g.s.body(tasks, b.body)
	st.reqBytes += int64(len(b.body))
	resp, err := g.hc.Post(g.url+"/v1/submit", g.s.contentType(), bytes.NewReader(b.body))
	if err != nil {
		st.fail(err.Error())
		return false
	}
	b.resp.Reset()
	_, err = b.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		st.fail(err.Error())
		return false
	}
	st.respBytes += int64(b.resp.Len())
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode == http.StatusTooManyRequests {
			st.shed++
		}
		st.fail(fmt.Sprintf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(b.resp.String())))
		return false
	}
	if audit {
		st.audited++
		if msg := g.audit(tasks, b.resp.Bytes()); msg != "" {
			st.mismatched++
			st.fail(msg)
			return false
		}
	}
	st.ok++
	return true
}

func (st *loadStats) fail(msg string) {
	st.failed++
	if st.firstErr == "" {
		st.firstErr = msg
	}
}

// audit recomputes every task of a reply with the kind's own kernel.
func (g *loadgen) audit(tasks []taskRef, reply []byte) string {
	var r submitReply
	if err := json.Unmarshal(reply, &r); err != nil {
		return "audit: reply is not JSON: " + err.Error()
	}
	if len(r.Results) != len(tasks) {
		return fmt.Sprintf("audit: %d results for %d tasks", len(r.Results), len(tasks))
	}
	for i, t := range tasks {
		if e := maxRelErr(r.Results[i].Output, g.s.expected(t)); e > auditTolerance {
			return fmt.Sprintf("audit: %s key %d: relative error %.3g", g.s.kinds[t.kind].Name, t.key, e)
		}
	}
	return ""
}

// maxRelErr is the largest |got−want| / max(|want|, 1e-300) over the
// vector, +Inf on a length mismatch or a NaN.
func maxRelErr(got, want []float64) float64 {
	if len(got) != len(want) {
		return math.Inf(1)
	}
	var worst float64
	for i := range want {
		e := math.Abs(got[i]-want[i]) / math.Max(math.Abs(want[i]), 1e-300)
		if math.IsNaN(e) {
			return math.Inf(1)
		}
		worst = math.Max(worst, e)
	}
	return worst
}

func (st *loadStats) merge(o *loadStats) {
	st.attempted += o.attempted
	st.ok += o.ok
	st.failed += o.failed
	st.shed += o.shed
	st.audited += o.audited
	st.mismatched += o.mismatched
	st.reqBytes += o.reqBytes
	st.respBytes += o.respBytes
	st.lat = append(st.lat, o.lat...)
	st.late = append(st.late, o.late...)
	if st.firstErr == "" {
		st.firstErr = o.firstErr
	}
}

// runClients runs one body per client goroutine and merges their stats.
func (g *loadgen) runClients(body func(b *clientBuf, st *loadStats)) loadStats {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var total loadStats
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var st loadStats
			body(&clientBuf{}, &st)
			mu.Lock()
			total.merge(&st)
			mu.Unlock()
		}()
	}
	wg.Wait()
	total.elapsed = time.Since(t0)
	return total
}

// fixed sends a fixed list of requests, each once.
func (g *loadgen) fixed(ctx context.Context, reqs [][]taskRef) loadStats {
	var next atomic.Int64
	return g.runClients(func(b *clientBuf, st *loadStats) {
		for {
			i := int(next.Add(1) - 1)
			if i >= len(reqs) || ctx.Err() != nil {
				return
			}
			g.send(reqs[i], i%auditEvery == 0, b, st)
		}
	})
}

// closedLoop sends stream requests from *index for d: each client
// sends its next request when the previous reply is complete.
func (g *loadgen) closedLoop(ctx context.Context, index *atomic.Uint64, d time.Duration) loadStats {
	end := time.Now().Add(d)
	return g.runClients(func(b *clientBuf, st *loadStats) {
		for time.Now().Before(end) && ctx.Err() == nil {
			i := index.Add(1) - 1
			b.refs = g.s.request(i, b.refs)
			g.send(b.refs, i%auditEvery == 0, b, st)
		}
	})
}

// openLoop sends stream requests on a fixed schedule for d: request n
// is due at start + n/rate whatever the server does, and its latency
// runs from that due time. A client that finds the next request already
// overdue sends it at once; how overdue is the generator's lateness.
func (g *loadgen) openLoop(ctx context.Context, index *atomic.Uint64, d time.Duration, rate float64) loadStats {
	due := int64(d.Seconds() * rate)
	interval := time.Duration(float64(time.Second) / rate)
	var slot atomic.Int64
	start := time.Now()
	giveUp := start.Add(d + 2*requestTimeout)
	return g.runClients(func(b *clientBuf, st *loadStats) {
		for {
			n := slot.Add(1) - 1
			if n >= due {
				return
			}
			at := time.Duration(n) * interval
			if time.Now().After(giveUp) || ctx.Err() != nil {
				st.attempted++
				st.fail("open loop: schedule abandoned, server too far behind")
				continue
			}
			if wait := time.Until(start.Add(at)); wait > 0 {
				time.Sleep(wait)
			}
			st.late = append(st.late, time.Since(start)-at)
			i := index.Add(1) - 1
			b.refs = g.s.request(i, b.refs)
			if g.send(b.refs, i%auditEvery == 0, b, st) {
				st.lat = append(st.lat, sample{due: at, lat: time.Since(start) - at})
			}
		}
	})
}

// promHist is the cumulative bucket counts of one Prometheus histogram.
type promHist struct {
	le    []float64 // upper bounds in seconds, +Inf last
	count []float64
	sum   float64
}

// fetchHist scrapes /metrics for one histogram family.
func fetchHist(hc *http.Client, url, family string) (promHist, error) {
	var h promHist
	resp, err := hc.Get(url + "/metrics")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, family+`_bucket{le="`); ok {
			bound, val, ok := strings.Cut(rest, `"} `)
			if !ok {
				continue
			}
			le := math.Inf(1)
			if bound != "+Inf" {
				if le, err = strconv.ParseFloat(bound, 64); err != nil {
					return h, fmt.Errorf("/metrics: %q: %w", line, err)
				}
			}
			c, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return h, fmt.Errorf("/metrics: %q: %w", line, err)
			}
			h.le = append(h.le, le)
			h.count = append(h.count, c)
		} else if rest, ok := strings.CutPrefix(line, family+"_sum "); ok {
			if h.sum, err = strconv.ParseFloat(rest, 64); err != nil {
				return h, fmt.Errorf("/metrics: %q: %w", line, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return h, err
	}
	if len(h.le) == 0 {
		return h, fmt.Errorf("/metrics: no %s histogram", family)
	}
	return h, nil
}

func (h promHist) sub(prev promHist) promHist {
	d := promHist{le: h.le, count: make([]float64, len(h.count)), sum: h.sum - prev.sum}
	for i := range h.count {
		d.count[i] = h.count[i]
		if i < len(prev.count) {
			d.count[i] -= prev.count[i]
		}
	}
	return d
}

// quantile interpolates linearly inside the bucket that holds q. The
// exported buckets are coarse (1-2.5-5 steps), so this is a position
// within a bucket, not a measured value.
func (h promHist) quantile(q float64) float64 {
	total := h.count[len(h.count)-1]
	if total == 0 {
		return 0
	}
	target := q * total
	var lo, below float64
	for i, c := range h.count {
		if c >= target {
			hi := h.le[i]
			if math.IsInf(hi, 1) {
				return lo
			}
			if c == below {
				return hi
			}
			return lo + (hi-lo)*(target-below)/(c-below)
		}
		lo, below = h.le[i], c
	}
	return lo
}

// serveRun is one serve workload's run state.
type serveRun struct {
	spec   serveSpec
	size   sizing
	plan   phasePlan
	bin    string
	dir    string // scratch directory, removed when the run ends
	chain  string
	hc     *http.Client
	stream *stream
	gen    *loadgen
	fill   [][]taskRef
	index  atomic.Uint64 // next stream request to send
	res    *result
	srv    *server
}

func (r *serveRun) start(ctx context.Context) error {
	args := []string{"-workers", "1", "-chain", r.chain, "-nosync"}
	if r.spec.zipf {
		args = append(args, "-tht-budget", strconv.Itoa(zipfBudget), "-delta-every", zipfDeltaEvery)
	}
	srv, err := startServer(ctx, r.hc, r.bin, args...)
	if err != nil {
		return err
	}
	r.srv = srv
	r.gen.url = srv.url
	return nil
}

func (r *serveRun) stop() (time.Duration, error) {
	srv := r.srv
	r.srv = nil
	// A connection the transport dialled and never used stays in the
	// server's "new" state, and http.Server.Shutdown waits 5 s for those.
	r.hc.CloseIdleConnections()
	return srv.stop()
}

// runServe runs one serve workload against a real atmd child.
func runServe(ctx context.Context, e env, spec serveSpec, seed uint64, seconds float64, traced bool, res *result) (err error) {
	r := &serveRun{spec: spec, size: e.size, plan: planFor(seconds, traced), hc: newHTTPClient(), res: res}
	if r.bin, err = buildAtmd(ctx, e); err != nil {
		return err
	}
	if r.dir, err = os.MkdirTemp(e.work, "run-"); err != nil {
		return err
	}
	defer os.RemoveAll(r.dir)
	defer func() {
		if r.srv != nil {
			r.srv.kill()
		}
	}()
	r.chain = filepath.Join(r.dir, "warm.atmchain")
	r.stream = newStream(seed, spec.binary, spec.zipf, e.size.hotKeys)
	r.gen = &loadgen{s: r.stream, hc: r.hc}
	r.fill = r.stream.hotSet()
	if spec.zipf {
		r.fill = make([][]taskRef, e.size.zipfFill)
		for i := range r.fill {
			r.fill[i] = r.stream.request(uint64(i), nil)
		}
	}
	r.index.Store(uint64(len(r.fill)))

	if err := r.fillPhase(ctx); err != nil {
		return err
	}
	if err := r.restartPhase(ctx); err != nil {
		return err
	}
	if traced {
		// In-process twin of the restart: what of setup_s is chain I/O.
		if err := tracePersist(r.chain, spec, res); err != nil {
			return err
		}
	}
	m, err := r.measure(ctx, traced)
	if err != nil {
		return err
	}
	r.report(m)
	return nil
}

// fillPhase has a cold server execute the fill and save it on SIGTERM.
func (r *serveRun) fillPhase(ctx context.Context) error {
	if err := r.start(ctx); err != nil {
		return err
	}
	r.res.count(r.gen.fixed(ctx, r.fill))
	filled, err := service.FetchStats(r.hc, r.srv.url)
	if err != nil {
		return err
	}
	saveTime, err := r.stop()
	if err != nil {
		return err
	}
	chain, err := os.Stat(r.chain)
	if err != nil {
		return fmt.Errorf("fill left no chain: %w", err)
	}
	r.res.set("persist.final_save_ms", ms(saveTime))
	r.res.set("persist.chain_bytes", float64(chain.Size()))
	if filled.THTBytes > 0 {
		r.res.set("persist.bytes_per_live_byte", float64(chain.Size())/float64(filled.THTBytes))
	}
	return nil
}

// restartPhase spawns from the chain until the first submit is
// answered, several times; the last server stays up for the measured
// phases. The probe is a fill request, so a restored table hits.
func (r *serveRun) restartPhase(ctx context.Context) error {
	cal := startCalibrator()
	setups, err := r.restarts(ctx)
	slow, _ := cal.finish()
	if err != nil {
		return err
	}
	r.res.set("setup_s", median(setups)/slow)
	return nil
}

func (r *serveRun) restarts(ctx context.Context) (setups []float64, err error) {
	for i := 0; i < r.size.restarts; i++ {
		if i > 0 {
			if _, err := r.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if err := r.start(ctx); err != nil {
			return nil, err
		}
		var st loadStats
		r.gen.send(r.fill[i%len(r.fill)], true, &clientBuf{}, &st)
		setups = append(setups, time.Since(t0).Seconds())
		r.res.count(st)
	}
	return setups, nil
}

// measured is what the warm server's phases yielded.
type measured struct {
	closed, open       loadStats
	before, mid, after service.StatsResponse // before closed, between, after open
	hist               promHist              // atmd_submit_seconds over closed + open
	serverCPU, selfCPU time.Duration         // over the closed loop
	slow               float64               // machine slowness over the closed loop
	unit               time.Duration
	rss                []float64 // MiB, sampled over closed + open
	peakRSS            int64
}

// measure runs warm-up, closed loop and open loop on the warm server,
// then stops it.
func (r *serveRun) measure(ctx context.Context, traced bool) (m measured, err error) {
	url, pid := r.srv.url, r.srv.cmd.Process.Pid
	r.res.count(r.gen.closedLoop(ctx, &r.index, r.plan.warm))

	if m.before, err = service.FetchStats(r.hc, url); err != nil {
		return m, err
	}
	histBefore, err := fetchHist(r.hc, url, "atmd_submit_seconds")
	if err != nil {
		return m, err
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		return m, err
	}
	self0 := selfCPU()
	stopRSS := watchRSS(pid)
	cal := startCalibrator()
	m.closed = r.gen.closedLoop(ctx, &r.index, r.plan.closed)
	m.slow, m.unit = cal.finish()
	m.selfCPU = selfCPU() - self0
	cpu1, err := procCPU(pid)
	if err != nil {
		stopRSS()
		return m, err
	}
	m.serverCPU = cpu1 - cpu0
	if m.mid, err = service.FetchStats(r.hc, url); err != nil {
		stopRSS()
		return m, err
	}

	m.open = r.gen.openLoop(ctx, &r.index, r.plan.open, r.spec.rate)
	m.rss = stopRSS()
	r.res.count(m.closed)
	r.res.count(m.open)
	if m.after, err = service.FetchStats(r.hc, url); err != nil {
		return m, err
	}
	histAfter, err := fetchHist(r.hc, url, "atmd_submit_seconds")
	if err != nil {
		return m, err
	}
	m.hist = histAfter.sub(histBefore)
	if m.peakRSS, err = procPeakRSS(pid); err != nil {
		return m, err
	}
	if traced {
		r.res.set("service.lookup_p50_us", r.lookupProbe())
	}
	if _, err := r.stop(); err != nil {
		return m, err
	}
	return m, ctx.Err()
}

// report turns the measurements into metrics and runs the workload's
// regime checks.
func (r *serveRun) report(m measured) {
	res := r.res
	// End to end. Throughput and CPU per task are CPU-bound, so they are
	// scaled to the nominal machine speed; open-loop latency at 40 % load
	// is not, and is reported as measured.
	closedTasks := float64(m.closed.ok) * float64(r.stream.batch)
	res.set("tasks_per_s", m.slow*closedTasks/m.closed.elapsed.Seconds())
	if closedTasks > 0 {
		res.set("cpu_us_per_task", us(m.serverCPU)/closedTasks/m.slow)
	}
	p50, p99, windows := latencyQuantiles(m.open.lat, r.plan.open)
	res.set("lat_p50_ms", ms(p50))
	var within int64
	for _, s := range m.open.lat {
		if s.lat <= sloLimit {
			within++
		}
	}
	res.set("slo_ok_ratio", float64(within)/float64(max(m.open.attempted, 1)))
	diff := m.after.Sub(m.before)
	hit := diff.WarmHitRatio()
	res.set("hit_ratio", hit)
	res.set("rss_mb", median(m.rss))
	res.set("correctness_pct", 100*(1-float64(res.mismatched)/float64(max(res.audited, 1))))
	res.note("open loop: %d of %d due requests answered, p99 is the median of %d windows of %v; machine slowness %.3f in the closed loop",
		len(m.open.lat), m.open.attempted, windows, p99Window, m.slow)
	switch {
	case !r.spec.zipf && hit < 0.999:
		res.outOfRegime("hit ratio %.4f after restart, want ≥ 0.999: the chain did not restore a trained, warm table", hit)
	case r.spec.zipf && (hit <= 0.3 || hit >= 0.9 || diff.THTBudgetEvictions == 0):
		res.outOfRegime("hit ratio %.3f (want 0.3–0.9), %d budget evictions (want > 0): the table is not evicting under a skewed stream",
			hit, diff.THTBudgetEvictions)
	}

	// Per layer, from the outside.
	res.set("service.req_per_s", float64(m.closed.ok)/m.closed.elapsed.Seconds())
	res.set("service.lat_p99_ms", ms(p99))
	res.set("service.rss_peak_mb", float64(m.peakRSS)/(1<<20))
	if cd := m.mid.Sub(m.before); cd.Batches > 0 {
		res.set("service.tasks_per_batch", float64(cd.Tasks)/float64(cd.Batches))
	}
	res.set("service.server_p50_ms", 1e3*m.hist.quantile(0.50))
	res.set("service.server_p99_ms", 1e3*m.hist.quantile(0.99))
	if n := m.hist.count[len(m.hist.count)-1]; n > 0 {
		res.set("service.server_mean_ms", 1e3*m.hist.sum/n)
	}
	both := m.closed
	both.merge(&m.open)
	sent := float64(max(both.attempted, 1))
	res.set("service.req_bytes", float64(both.reqBytes)/sent)
	res.set("service.resp_bytes", float64(both.respBytes)/sent)
	res.set("service.shed_ratio", float64(both.shed)/sent)
	if diff.THTLookups > 0 {
		res.set("core.tht_hit_ratio", float64(diff.THTHits)/float64(diff.THTLookups))
	}
	res.set("core.ikt_defers", float64(diff.IKTDefers))
	res.set("core.evictions", float64(diff.THTEvictions))
	res.set("core.budget_evictions", float64(diff.THTBudgetEvictions))
	res.set("core.admission_rejects", float64(diff.THTAdmissionRejects))
	res.set("core.tht_bytes", float64(m.after.THTBytes))
	res.set("core.tht_entries", float64(m.after.THTEntries))
	res.set("persist.delta_saves", float64(diff.Saves))
	res.set("loadgen.late_p99_ms", ms(quantile(m.open.late, 0.99)))
	res.set("loadgen.cpu_us_per_req", us(m.selfCPU)/float64(max(m.closed.attempted, 1)))
	res.set("loadgen.calib_unit_us", us(m.unit))
}

// lookupProbe times GET /v1/lookup round trips on filled keys: the
// read path that never enters the engine loop.
func (r *serveRun) lookupProbe() float64 {
	var lat []time.Duration
	for i := 0; i < lookupProbes; i++ {
		t := r.fill[i%len(r.fill)][0]
		url := fmt.Sprintf("%s/v1/lookup?kind=%s&key=%d&seed=%d", r.srv.url, r.stream.kinds[t.kind].Name, t.key, r.stream.seed)
		t0 := time.Now()
		resp, err := r.hc.Get(url)
		if err != nil {
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body) // a short read only shortens the sample
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			lat = append(lat, time.Since(t0))
		}
	}
	return us(quantile(lat, 0.5))
}

// latencyQuantiles returns the whole-phase median and the median over
// p99Window-long windows of each window's p99. A window's p99 needs at
// least ten samples beyond it to be a measurement; windows with fewer
// than 1000 samples are left out.
func latencyQuantiles(lat []sample, phase time.Duration) (p50, p99 time.Duration, windows int) {
	all := make([]time.Duration, len(lat))
	byWindow := make([][]time.Duration, int(phase/p99Window)+1)
	for i, s := range lat {
		all[i] = s.lat
		w := int(s.due / p99Window)
		byWindow[w] = append(byWindow[w], s.lat)
	}
	var p99s []time.Duration
	for _, w := range byWindow {
		if len(w) >= 1000 {
			p99s = append(p99s, quantile(w, 0.99))
		}
	}
	if len(p99s) == 0 {
		// Too short a phase for windows (the miniature test): one p99
		// over everything.
		return quantile(all, 0.5), quantile(all, 0.99), 0
	}
	return quantile(all, 0.5), quantile(p99s, 0.5), len(p99s)
}
