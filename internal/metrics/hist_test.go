package metrics

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("empty histogram not zero: count=%d sum=%v", h.Count(), h.Sum())
	}
	h.Observe(1 * time.Millisecond)
	h.Observe(2 * time.Millisecond)
	h.Observe(3 * time.Millisecond)
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3", h.Count())
	}
	if h.Sum() != 6*time.Millisecond {
		t.Fatalf("sum = %v, want 6ms", h.Sum())
	}
}

// TestHistogramBucketsAreExact observes each ladder bound b and b+10µs
// and requires the le=b bucket to hold exactly one of them: le is an
// inclusive upper bound, and a value just past it belongs to the next
// bucket. Values at or below zero land in the first bucket, values past
// the last bound only in +Inf.
func TestHistogramBucketsAreExact(t *testing.T) {
	render := func(h *Histogram) string {
		var b strings.Builder
		p := NewProm(&b)
		p.LatencyHistogram("lat", nil, h)
		return b.String()
	}
	for _, b := range latencyBounds {
		var h Histogram
		h.Observe(b)
		h.Observe(b + 10*time.Microsecond)
		got := render(&h)
		for _, want := range []string{
			fmt.Sprintf(`lat_bucket{le="%s"} 1`+"\n", formatFloat(b.Seconds())),
			`lat_bucket{le="+Inf"} 2` + "\n",
			"lat_count 2\n",
		} {
			if !strings.Contains(got, want) {
				t.Errorf("observed %v and %v: missing %q in:\n%s", b, b+10*time.Microsecond, want, got)
			}
		}
	}

	var h Histogram
	h.Observe(-time.Millisecond)
	h.Observe(0)
	h.Observe(11 * time.Second)
	got := render(&h)
	for _, want := range []string{
		`lat_bucket{le="0.0001"} 2` + "\n",
		`lat_bucket{le="10"} 2` + "\n",
		`lat_bucket{le="+Inf"} 3` + "\n",
		"lat_sum 11\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
}
