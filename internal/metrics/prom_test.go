package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestPromOutput(t *testing.T) {
	var b strings.Builder
	p := NewProm(&b)
	p.Family("atm_test_total", "counter", "A test counter.")
	p.Sample("atm_test_total", nil, 42)
	p.Sample("atm_test_total", []Label{{"type", "a"}, {"code", "200"}}, 7)
	p.Family("atm_frac", "gauge", "A fractional gauge.")
	p.Sample("atm_frac", nil, 0.25)
	got := b.String()
	for _, want := range []string{
		"# HELP atm_test_total A test counter.\n",
		"# TYPE atm_test_total counter\n",
		"atm_test_total 42\n",
		`atm_test_total{type="a",code="200"} 7` + "\n",
		"atm_frac 0.25\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestPromEscaping(t *testing.T) {
	var b strings.Builder
	p := NewProm(&b)
	p.Family("m", "gauge", "multi\nline \\ help")
	p.Sample("m", []Label{{"v", "a\"b\\c\nd"}}, 1)
	got := b.String()
	if !strings.Contains(got, `multi\nline \\ help`) {
		t.Errorf("HELP not escaped: %q", got)
	}
	if !strings.Contains(got, `{v="a\"b\\c\nd"}`) {
		t.Errorf("label not escaped: %q", got)
	}
}

func TestPromLatencyHistogram(t *testing.T) {
	var h Histogram
	h.Observe(1 * time.Millisecond)
	h.Observe(20 * time.Millisecond)
	h.Observe(2 * time.Second)
	var b strings.Builder
	p := NewProm(&b)
	p.Family("lat", "histogram", "latency")
	p.LatencyHistogram("lat", nil, &h)
	got := b.String()
	for _, want := range []string{
		`lat_bucket{le="0.005"} 1` + "\n", // 1ms only
		`lat_bucket{le="0.05"} 2` + "\n",  // +20ms
		`lat_bucket{le="+Inf"} 3` + "\n",
		"lat_count 3\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
	// _sum ≈ 2.021s.
	if !strings.Contains(got, "lat_sum 2.021") {
		t.Errorf("unexpected sum line in:\n%s", got)
	}
}
