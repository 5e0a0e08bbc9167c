package main

import (
	"slices"
	"time"

	"atm/internal/harness"
	"atm/internal/service"
)

// metric is one reported number. BENCHMARK.json repeats these names and
// units with each metric's direction and regression bound; a test keeps
// the two lists identical.
type metric struct{ name, unit string }

// endToEnd is what a client of atmd or a user of the task runtime
// sees. Every workload reports every one; README.md says what each
// means on the serve workloads and on apps_dynamic.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"tasks_per_s", "1/s"},
	{"lat_p50_ms", "ms"},
	{"slo_ok_ratio", "ratio"},
	{"hit_ratio", "ratio"},
	{"cpu_us_per_task", "us"},
	{"rss_mb", "MiB"},
	{"correctness_pct", "%"},
}

// memoKinds are the names of the memoizable service kinds, in catalog
// order: the kinds the streams draw and whose kernels are timed.
var memoKinds = func() []string {
	var names []string
	for _, k := range service.Kinds() {
		if k.Memoize {
			names = append(names, k.Name)
		}
	}
	return names
}()

// perLayer is the ledger: each layer measured from outside, through
// its public functions or counters. A metric the workload does not
// reach reads 0.
var perLayer = func() []metric {
	ms := []metric{
		{"service.net_self_us", "us"},
		{"service.http_self_us", "us"},
		{"service.engine_self_us", "us"},
		{"service.req_per_s", "1/s"},
		{"service.lat_p99_ms", "ms"},
		{"service.rss_peak_mb", "MiB"},
		{"service.tasks_per_batch", "count"},
		{"service.server_p50_ms", "ms"},
		{"service.server_p99_ms", "ms"},
		{"service.server_mean_ms", "ms"},
		{"service.req_bytes", "B"},
		{"service.resp_bytes", "B"},
		{"service.shed_ratio", "ratio"},
		{"service.lookup_p50_us", "us"},
		{"taskrt.submit_wait_us_b4", "us"},
		{"taskrt.submit_wait_us_b512", "us"},
		{"taskrt.self_us", "us"},
		{"core.hit_us", "us"},
		{"core.leaf_us", "us"},
		{"core.hash_us_per_task", "us"},
		{"core.copy_us_per_task", "us"},
		{"core.tht_hit_ratio", "ratio"},
		{"core.ikt_defers", "count"},
		{"core.evictions", "count"},
		{"core.budget_evictions", "count"},
		{"core.admission_rejects", "count"},
		{"core.tht_bytes", "B"},
		{"core.tht_entries", "count"},
		{"core.level_mean", "count"},
		{"hashx.lookup3_gbps_640b", "GB/s"},
		{"hashx.lookup3_gbps_64k", "GB/s"},
	}
	for _, k := range memoKinds {
		ms = append(ms, metric{"kernel.exec_us." + k, "us"})
	}
	ms = append(ms, metric{"apps.time_s", "s"}, metric{"apps.speedup_geomean", "x"})
	for _, app := range harness.Benchmarks() {
		ms = append(ms,
			metric{"apps." + app + ".baseline_ms", "ms"},
			metric{"apps." + app + ".atm_ms", "ms"},
			metric{"apps." + app + ".speedup", "x"},
			metric{"apps." + app + ".correctness_pct", "%"},
			metric{"apps." + app + ".reuse_pct", "%"})
	}
	return append(ms,
		metric{"trace.exec_share", "ratio"},
		metric{"trace.hash_share", "ratio"},
		metric{"trace.memo_share", "ratio"},
		metric{"trace.create_share", "ratio"},
		metric{"trace.idle_share", "ratio"},
		metric{"persist.final_save_ms", "ms"},
		metric{"persist.restore_ms", "ms"},
		metric{"persist.chain_bytes", "B"},
		metric{"persist.bytes_per_live_byte", "ratio"},
		metric{"persist.delta_saves", "count"},
		metric{"persist.delta_append_ms", "ms"},
		metric{"go.alloc_bytes_per_req", "B"},
		metric{"go.mallocs_per_req", "count"},
		metric{"go.gc_pause_ms", "ms"},
		metric{"loadgen.late_p99_ms", "ms"},
		metric{"loadgen.cpu_us_per_req", "us"},
		metric{"loadgen.calib_unit_us", "us"},
		metric{"trace.overhead_pct", "%"},
		metric{"trace.self_sum_ratio", "ratio"},
	)
}()

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the q-quantile (nearest rank) of xs, 0 when empty.
func quantile[T ~int64 | ~float64](xs []T, q float64) T {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[min(int(q*float64(len(s))), len(s)-1)]
}

// median is the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}
