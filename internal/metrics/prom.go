package metrics

import (
	"fmt"
	"strconv"
	"strings"
)

// Prometheus text-exposition-format writer (version 0.0.4, the format
// every Prometheus-compatible scraper accepts). The exporter is
// deliberately dependency-free: a scrape handler builds its families in
// registration order with one Family call per metric name and one
// Sample per series, and the writer takes care of HELP/TYPE headers,
// label escaping and float formatting.
//
// It writes into memory, where a write cannot fail, so a scrape handler
// renders the whole exposition first and then sends it with its length.
//
// Usage:
//
//	var b strings.Builder
//	p := metrics.NewProm(&b)
//	p.Family("atmd_requests_total", "counter", "HTTP requests by route and code.")
//	p.Sample("atmd_requests_total", []metrics.Label{{"route", "submit"}, {"code", "200"}}, 123)
//	p.LatencyHistogram("atmd_submit_seconds", nil, hist)
//	body := b.String()

// Label is one name="value" pair of a sample.
type Label struct {
	Name, Value string
}

// Prom writes metric families in the Prometheus text format.
type Prom struct {
	b *strings.Builder
}

// NewProm returns a writer appending to b.
func NewProm(b *strings.Builder) *Prom { return &Prom{b: b} }

func (p *Prom) printf(format string, args ...any) {
	fmt.Fprintf(p.b, format, args...)
}

// Family emits the HELP/TYPE header for a metric name. typ is one of
// "counter", "gauge", "histogram". Call it once per name, before the
// name's samples.
func (p *Prom) Family(name, typ, help string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
}

// Sample emits one series: name{labels} value.
func (p *Prom) Sample(name string, labels []Label, v float64) {
	p.printf("%s%s %s\n", name, renderLabels(labels), formatFloat(v))
}

// LatencyHistogram renders h as a Prometheus histogram in seconds:
// cumulative name_bucket{le="..."} series over h's ladder, name_sum and
// name_count (the +Inf bucket's value, so the two always agree). Call
// Family(name, "histogram", ...) first.
func (p *Prom) LatencyHistogram(name string, labels []Label, h *Histogram) {
	var n uint64
	for i, b := range latencyBounds {
		n += h.buckets[i].Load()
		le := append(append([]Label{}, labels...), Label{"le", formatFloat(b.Seconds())})
		p.Sample(name+"_bucket", le, float64(n))
	}
	n += h.buckets[len(latencyBounds)].Load()
	inf := append(append([]Label{}, labels...), Label{"le", "+Inf"})
	p.Sample(name+"_bucket", inf, float64(n))
	p.Sample(name+"_sum", labels, h.Sum().Seconds())
	p.Sample(name+"_count", labels, float64(n))
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format:
// backslash, double quote and newline.
func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes a HELP string: backslash and newline only.
func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// formatFloat renders a float the way Prometheus expects: integers
// without an exponent, everything else in shortest form.
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
