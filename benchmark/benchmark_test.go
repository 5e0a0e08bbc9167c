package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"atm/internal/apps"
)

// miniSize shrinks every input so all four workloads run in seconds.
var miniSize = sizing{hotKeys: 32, zipfFill: 200, restarts: 2, replay: 40, appScale: apps.ScaleTest}

func bodiesDigest(s *stream, n int) string {
	h := sha256.New()
	var refs []taskRef
	var body []byte
	for i := 0; i < n; i++ {
		refs = s.request(uint64(i), refs)
		body = s.body(refs, body)
		h.Write(body)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// The stream is the benchmark's input: the same seed must always give
// the same bytes, on every machine and after every change to the
// service's generator or encoders. A change here re-bases every
// recorded number.
func TestStreamIsDeterministic(t *testing.T) {
	pinned := []struct {
		name         string
		binary, zipf bool
		digest       string
	}{
		{"hot json", false, false, "319193908454c2ca733f022473eed1760a1dafce2f6a009001ed0d8e719afce1"},
		{"hot binary", true, false, "2dafbf15fe8e8922cb7d43dd8b3b56b1f66d98427c3b4ad44b87a0abfebdb4c0"},
		{"zipf binary", true, true, "5d5784c67fb2fcd0b8573e7d9ee6619af7dbb5dd99f9c8d73f1cf565c5efeab0"},
	}
	for _, p := range pinned {
		got := bodiesDigest(newStream(1, p.binary, p.zipf, fullSize.hotKeys), 1000)
		if got != p.digest {
			t.Errorf("%s: first 1000 bodies of seed 1 hash to %s, pinned %s", p.name, got, p.digest)
		}
		if again := bodiesDigest(newStream(1, p.binary, p.zipf, fullSize.hotKeys), 1000); again != got {
			t.Errorf("%s: two streams of seed 1 differ", p.name)
		}
		if other := bodiesDigest(newStream(2, p.binary, p.zipf, fullSize.hotKeys), 1000); other == got {
			t.Errorf("%s: seeds 1 and 2 give the same bodies", p.name)
		}
	}
}

// Zipf with s = 0.99 over 65536 keys puts 59 % of its mass on the top
// 1 % of keys, and a tenth of the requests are scans that never repeat.
func TestZipfShape(t *testing.T) {
	s := newStream(7, true, true, fullSize.hotKeys)
	var refs []taskRef
	var head, drawn, scans, requests int
	seen := map[uint64]bool{}
	for i := 0; i < 20000; i++ {
		refs = s.request(uint64(i), refs)
		requests++
		if refs[0].key >= zipfKeys {
			scans++
			for _, r := range refs {
				if seen[r.key] {
					t.Fatalf("scan key %d repeats", r.key)
				}
				seen[r.key] = true
			}
			continue
		}
		for _, r := range refs {
			drawn++
			if r.key < zipfKeys/100 {
				head++
			}
		}
	}
	if share := float64(head) / float64(drawn); share < 0.56 || share > 0.62 {
		t.Errorf("top 1%% of keys drew %.3f of the mass, want 0.56–0.62", share)
	}
	if share := float64(scans) / float64(requests); share < 0.09 || share > 0.11 {
		t.Errorf("scan requests are %.3f of the stream, want 0.09–0.11", share)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json and the metric tables must name the same metrics with
// the same units in the same order, inside the contract's limits.
func TestManifestMatchesMetrics(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	m, err := loadManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []manifestMetric, want []metric, limit int) {
		if len(got) != len(want) || len(got) > limit {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d, limit %d", kind, len(got), len(want), limit)
		}
		seen := map[string]bool{}
		for i, g := range got {
			if g.Name != want[i].name || g.Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json says %s [%s], the benchmark %s [%s]", kind, i, g.Name, g.Unit, want[i].name, want[i].unit)
			}
			if !metricName.MatchString(g.Name) || seen[g.Name] {
				t.Errorf("%s: bad or repeated name %q", kind, g.Name)
			}
			seen[g.Name] = true
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s: %s has direction %q", kind, g.Name, g.Better)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, 16)
	check("per_layer", m.PerLayer, perLayer, 128)
	for _, g := range m.EndToEnd {
		if g.Bound <= 0 || g.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", g.Name, g.Bound)
		}
	}
	if m.EndToEnd[0].Name != "setup_s" || m.EndToEnd[0].Unit != "s" || m.EndToEnd[0].Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better")
	}
	names := workloadNames()
	if len(m.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(m.Workloads), len(names))
	}
	for i, w := range m.Workloads {
		if w.Name != names[i] || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q vs %q, why of %d characters", i, w.Name, names[i], len(w.Why))
		}
	}
}

// Every workload in miniature: each metric BENCHMARK.json names is
// measured exactly once where it applies, no operation fails and every
// audited output is right. The numbers themselves mean nothing at this
// size.
func TestMiniatureWorkloads(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	e := env{root: root, work: t.TempDir(), size: miniSize}
	reached := map[string]bool{}
	for _, name := range workloadNames() {
		t0 := time.Now()
		res, err := runWorkload(context.Background(), e, name, 3, 0.6, true)
		t.Logf("%s: %.1f s", name, time.Since(t0).Seconds())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.failed != 0 || res.mismatched != 0 {
			t.Errorf("%s: %d of %d operations failed, %d of %d audits mismatched: %s",
				name, res.failed, res.attempted, res.mismatched, res.audited, res.firstErr)
		}
		// res.regime is not checked: a trained warm table, or an
		// evicting one, needs the full key space and fill.
		for _, v := range res.violations {
			t.Errorf("%s: %s", name, v)
		}
		for _, m := range endToEnd {
			if v, ok := res.values[m.name]; !ok || v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %v (measured: %v)", name, m.name, v, ok)
			}
		}
		for _, m := range perLayer {
			v, ok := res.values[m.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", name, m.name, v)
			}
			reached[m.name] = reached[m.name] || ok
			serveOnly := !strings.HasPrefix(m.name, "apps.") && !strings.HasSuffix(m.name, "_share")
			if name != "apps_dynamic" && serveOnly && !ok {
				t.Errorf("%s: per-layer metric %s was not measured", name, m.name)
			}
		}
		for got := range res.values {
			if !hasMetric(endToEnd, got) && !hasMetric(perLayer, got) {
				t.Errorf("%s: measured %s, which BENCHMARK.json does not name", name, got)
			}
		}
		if _, err := toRecord(name, 3, false, res); err != nil {
			t.Error(err)
		}
	}
	for _, m := range perLayer {
		if !reached[m.name] {
			t.Errorf("per-layer metric %s is measured by no workload", m.name)
		}
	}
	if left, _ := os.ReadDir(e.work); len(left) > 4 { // atmd + three span files
		t.Errorf("%d entries left in the work directory, want the binary and the span files only", len(left))
	}
}

func hasMetric(list []metric, name string) bool {
	for _, m := range list {
		if m.name == name {
			return true
		}
	}
	return false
}

func rec(workload string, failed int64, values map[string]float64) record {
	r := record{Workload: workload, Correct: true, Attempted: 100, Failed: failed, Metrics: map[string]metricValue{}}
	for k, v := range values {
		r.Metrics[k] = metricValue{Value: v}
	}
	return r
}

func TestCompareVerdicts(t *testing.T) {
	m := manifest{
		Workloads: []manifestWorkload{{Name: "w"}},
		EndToEnd: []manifestMetric{
			{Name: "lat_ms", Unit: "ms", Better: "lower", Bound: 0.10},
			{Name: "tput", Unit: "1/s", Better: "higher", Bound: 0.10},
		},
	}
	base := []record{rec("w", 0, map[string]float64{"lat_ms": 1.00, "tput": 1000})}
	cases := []struct {
		name string
		b    []record
		want int
	}{
		{"within bounds", []record{rec("w", 0, map[string]float64{"lat_ms": 1.08, "tput": 950})}, 0},
		{"better", []record{rec("w", 0, map[string]float64{"lat_ms": 0.5, "tput": 2000})}, 0},
		{"latency worse", []record{rec("w", 0, map[string]float64{"lat_ms": 1.12, "tput": 1000})}, 1},
		{"throughput worse", []record{rec("w", 0, map[string]float64{"lat_ms": 1.0, "tput": 880})}, 1},
		{"more failures", []record{rec("w", 3, map[string]float64{"lat_ms": 1.0, "tput": 1000})}, 1},
		{"workload missing", []record{rec("other", 0, map[string]float64{"lat_ms": 1.0, "tput": 1000})}, 2},
		{"own spread over the bound", []record{
			rec("w", 0, map[string]float64{"lat_ms": 0.7, "tput": 1000}), rec("w", 0, map[string]float64{"lat_ms": 0.9, "tput": 1000}),
			rec("w", 0, map[string]float64{"lat_ms": 1.1, "tput": 1000}), rec("w", 0, map[string]float64{"lat_ms": 1.3, "tput": 1000}),
		}, 2},
	}
	for _, c := range cases {
		if got := compareRecords(io.Discard, m, base, c.b); got != c.want {
			t.Errorf("%s: exit status %d, want %d", c.name, got, c.want)
		}
	}
}

func TestPromHistQuantile(t *testing.T) {
	h := promHist{le: []float64{0.001, 0.0025, math.Inf(1)}, count: []float64{50, 100, 100}}
	if got := h.quantile(0.5); got != 0.001 {
		t.Errorf("p50 = %v, want the first bucket's bound 0.001", got)
	}
	if got, want := h.quantile(0.75), 0.00175; math.Abs(got-want) > 1e-12 {
		t.Errorf("p75 = %v, want %v: halfway into the second bucket", got, want)
	}
	if got := (promHist{le: h.le, count: []float64{0, 0, 0}}).quantile(0.99); got != 0 {
		t.Errorf("empty histogram p99 = %v, want 0", got)
	}
}
