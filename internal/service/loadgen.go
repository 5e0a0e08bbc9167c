package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"atm/internal/metrics"
)

// Open-loop load generator (the client half of the service layer,
// behind cmd/atmload). Open-loop means arrivals follow a fixed
// schedule that does not slow down when the server does: request i's
// intended send time is start + i/rate, and its latency is measured
// from that intended time to completion. A server that falls behind
// therefore shows the queueing delay in the reported percentiles
// instead of silently throttling the generator — the coordinated-
// omission-free measurement the service docs call for.

// LoadConfig configures one load run.
type LoadConfig struct {
	// URL is the server base, e.g. "http://127.0.0.1:8080".
	URL string
	// Rate is the intended arrival rate in requests/second.
	Rate float64
	// Requests is the total HTTP request count.
	Requests int
	// Batch is the number of tasks per request body (0 = 1).
	Batch int
	// Mix weights task kinds by wire name (nil = DefaultMix()).
	// Weights are normalized; unknown names are an error.
	Mix map[string]float64
	// Keys is the key-space cardinality per kind (0 = 1024). Smaller
	// key spaces repeat inputs sooner and drive the warm-hit ratio up.
	Keys uint64
	// Seed seeds both kind selection and input generation.
	Seed uint64
	// InFlight caps concurrent HTTP requests (0 = 128). When the cap is
	// hit, requests queue but keep their intended arrival timestamps.
	InFlight int
	// Timeout bounds each HTTP request (0 = 30s).
	Timeout time.Duration
	// Binary selects the application/x-atm-tasks body encoding.
	Binary bool
	// KeyedBody sends {kind, key, seed} specs instead of expanded input
	// vectors, letting the server run the generator (smaller bodies).
	KeyedBody bool
}

// LoadReport is the result of a load run (serialized as atmload's JSON
// report).
type LoadReport struct {
	Requests   int     `json:"requests"`
	Tasks      int64   `json:"tasks"`
	OK         int64   `json:"ok"`
	Shed       int64   `json:"shed"`
	Errors     int64   `json:"errors"`
	DurationMS float64 `json:"duration_ms"`
	// OfferedRate is the configured arrival rate; AchievedRate the
	// completed-request throughput over the run.
	OfferedRate  float64 `json:"offered_rate_rps"`
	AchievedRate float64 `json:"achieved_rate_rps"`

	// Latency percentiles in milliseconds, measured from each request's
	// intended arrival time (not its actual send time).
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p999_ms"`
	MaxMS  float64 `json:"max_ms"`
	MeanMS float64 `json:"mean_ms"`

	// Server is the /v1/stats diff across the run; WarmHitRatio its
	// memoized fraction of ATM-visible tasks.
	Server       StatsResponse `json:"server"`
	WarmHitRatio float64       `json:"warm_hit_ratio"`
	// FirstError samples the first non-shed failure for diagnosis.
	FirstError string `json:"first_error,omitempty"`
}

// submitRequest is the JSON submit body as the generator marshals it;
// the server reads the same grammar without these types (codec.go).
type submitRequest struct {
	Tasks []taskSpec `json:"tasks"`
}

// taskSpec is one task: a kind plus either an explicit input vector or
// a (key, seed) pair the server expands through the deterministic
// workload generator (the form atmload's smoke mode and quick curl
// tests use). Tenant selects the memoization namespace; a request-wide
// default comes from the X-ATM-Tenant header.
type taskSpec struct {
	Kind   string    `json:"kind"`
	Tenant string    `json:"tenant,omitempty"`
	Input  []float64 `json:"input,omitempty"`
	Key    *uint64   `json:"key,omitempty"`
	Seed   uint64    `json:"seed,omitempty"`
}

// mixEntry is one kind's slot in the cumulative selection table.
type mixEntry struct {
	kind Kind
	cum  float64
}

// buildMix normalizes a mix into a cumulative table over sorted names.
func buildMix(mix map[string]float64) ([]mixEntry, error) {
	if mix == nil {
		mix = DefaultMix()
	}
	names := make([]string, 0, len(mix))
	var total float64
	for name, w := range mix {
		if w < 0 {
			return nil, fmt.Errorf("loadgen: negative weight for %q", name)
		}
		if w == 0 {
			continue
		}
		if _, ok := KindByName(name); !ok {
			return nil, fmt.Errorf("loadgen: unknown kind %q in mix", name)
		}
		names = append(names, name)
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("loadgen: empty mix")
	}
	sort.Strings(names)
	entries := make([]mixEntry, 0, len(names))
	var cum float64
	for _, name := range names {
		k, _ := KindByName(name)
		cum += mix[name] / total
		entries = append(entries, mixEntry{kind: k, cum: cum})
	}
	entries[len(entries)-1].cum = 1 // absorb rounding
	return entries, nil
}

// pick selects a kind from the cumulative table by a uniform u in [0,1).
func pick(entries []mixEntry, u float64) Kind {
	for _, e := range entries {
		if u < e.cum {
			return e.kind
		}
	}
	return entries[len(entries)-1].kind
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

// RunLoad executes the configured run and reports.
func RunLoad(cfg LoadConfig) (LoadReport, error) {
	if cfg.Requests <= 0 {
		return LoadReport{}, fmt.Errorf("loadgen: Requests must be positive")
	}
	if cfg.Rate <= 0 {
		return LoadReport{}, fmt.Errorf("loadgen: Rate must be positive")
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 1
	}
	if cfg.Keys == 0 {
		cfg.Keys = 1024
	}
	if cfg.InFlight <= 0 {
		cfg.InFlight = 128
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	entries, err := buildMix(cfg.Mix)
	if err != nil {
		return LoadReport{}, err
	}
	client := &http.Client{
		Timeout: cfg.Timeout,
		Transport: &http.Transport{
			MaxIdleConns:        cfg.InFlight + 8,
			MaxIdleConnsPerHost: cfg.InFlight + 8,
		},
	}

	before, err := FetchStats(client, cfg.URL)
	if err != nil {
		return LoadReport{}, fmt.Errorf("loadgen: server unreachable: %w", err)
	}

	type job struct {
		index    int
		intended time.Time
	}
	jobs := make(chan job, 4096)
	hist := &metrics.Histogram{}
	var ok, shed, errs, tasksSent atomic.Int64
	var firstErrMu sync.Mutex
	var firstErr string
	noteErr := func(msg string) {
		errs.Add(1)
		firstErrMu.Lock()
		if firstErr == "" {
			firstErr = msg
		}
		firstErrMu.Unlock()
	}

	// body builds request i's payload; every task of the request draws
	// its kind and key from a per-index splitmix stream, so the run is
	// reproducible from (Seed, Mix, Keys, Batch) alone.
	body := func(i int) (payload []byte, contentType string, err error) {
		s := splitmix64(cfg.Seed ^ uint64(i)*0x9e3779b97f4a7c15)
		specs := make([]taskSpec, cfg.Batch)
		tasks := make([]Task, 0, cfg.Batch)
		for j := 0; j < cfg.Batch; j++ {
			s = splitmix64(s)
			k := pick(entries, float64(s>>11)/(1<<53))
			s = splitmix64(s)
			key := s % cfg.Keys
			if cfg.KeyedBody {
				kc := key
				specs[j] = taskSpec{Kind: k.Name, Key: &kc, Seed: cfg.Seed}
			} else {
				tasks = append(tasks, Task{Kind: k.Name, Input: Input(k, key, cfg.Seed)})
			}
		}
		if cfg.Binary {
			b, err := EncodeBinaryTasks(tasks)
			return b, binaryContentType, err
		}
		if cfg.KeyedBody {
			b, err := json.Marshal(submitRequest{Tasks: specs})
			return b, "application/json", err
		}
		for j, t := range tasks {
			specs[j] = taskSpec{Kind: t.Kind, Input: t.Input}
		}
		b, err := json.Marshal(submitRequest{Tasks: specs})
		return b, "application/json", err
	}

	var wg sync.WaitGroup
	for w := 0; w < cfg.InFlight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				payload, ct, berr := body(j.index)
				if berr != nil {
					noteErr(berr.Error())
					continue
				}
				resp, rerr := client.Post(cfg.URL+"/v1/submit", ct, bytes.NewReader(payload))
				if rerr != nil {
					noteErr(rerr.Error())
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					ok.Add(1)
					tasksSent.Add(int64(cfg.Batch))
					hist.Observe(time.Since(j.intended))
				case http.StatusTooManyRequests:
					shed.Add(1)
				default:
					noteErr(fmt.Sprintf("HTTP %d", resp.StatusCode))
				}
			}
		}()
	}

	start := time.Now()
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	for i := 0; i < cfg.Requests; i++ {
		intended := start.Add(time.Duration(i) * interval)
		if d := time.Until(intended); d > 0 {
			time.Sleep(d)
		}
		jobs <- job{index: i, intended: intended}
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start)

	after, err := FetchStats(client, cfg.URL)
	if err != nil {
		return LoadReport{}, fmt.Errorf("loadgen: final stats fetch: %w", err)
	}
	diff := after.Sub(before)

	r := LoadReport{
		Requests:     cfg.Requests,
		Tasks:        tasksSent.Load(),
		OK:           ok.Load(),
		Shed:         shed.Load(),
		Errors:       errs.Load(),
		DurationMS:   float64(elapsed) / float64(time.Millisecond),
		OfferedRate:  cfg.Rate,
		AchievedRate: float64(ok.Load()) / elapsed.Seconds(),
		P50MS:        ms(hist.Quantile(0.50)),
		P90MS:        ms(hist.Quantile(0.90)),
		P99MS:        ms(hist.Quantile(0.99)),
		P999MS:       ms(hist.Quantile(0.999)),
		MaxMS:        ms(hist.Max()),
		MeanMS:       ms(hist.Mean()),
		Server:       diff,
		WarmHitRatio: diff.WarmHitRatio(),
		FirstError:   firstErr,
	}
	return r, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
