package metrics

import (
	"sync/atomic"
	"time"
)

// latencyBounds is the le-bucket ladder a Histogram counts against and
// LatencyHistogram exposes: coarse enough to stay readable, fine enough
// to locate a p99 between 100µs and 10s.
var latencyBounds = [...]time.Duration{
	100 * time.Microsecond, 250 * time.Microsecond, 500 * time.Microsecond,
	1 * time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond,
	10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
	1 * time.Second, 2500 * time.Millisecond, 5 * time.Second, 10 * time.Second,
}

// Histogram is a fixed-memory, concurrency-safe latency histogram over
// the latencyBounds ladder: one counter per bound, holding the values
// above the previous bound and at most this one (Prometheus's le is an
// inclusive upper bound), one for the values above the last bound, and
// the sum. Observe is a short scan plus two atomic adds, so a server
// can record on the request path without locks. The zero value is ready
// to use.
type Histogram struct {
	buckets [len(latencyBounds) + 1]atomic.Uint64
	sum     atomic.Int64 // nanoseconds
}

// Observe records one duration; a negative one counts as zero.
func (h *Histogram) Observe(d time.Duration) {
	d = max(d, 0)
	i := 0
	for i < len(latencyBounds) && d > latencyBounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sum.Add(int64(d))
}

// Count returns the number of recorded values.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the total of all recorded durations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }
