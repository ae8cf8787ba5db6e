package main

import (
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"ripple/internal/prefetch"
	"ripple/internal/replacement"
)

// metricDef names one reported metric. The lists below are the ones
// BENCHMARK.json declares; a test keeps the two in step.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics of a run with tracing off. Host times are
// medians over the run's timed passes; mpki is simulated and repeats
// exactly for a seed.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"blocks_per_s", "blocks/s", "higher"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"alloc_bytes_per_block", "B/block", "lower"},
	{"setup_s", "s", "lower"},
	{"mpki", "MPKI", "lower"},
}

// perLayer are the metrics of a traced run, named <module>.<metric>.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"workload.build_s", "s", "lower"},
		{"trace.encode_s", "s", "lower"},
		{"program.load_s", "s", "lower"},

		{"trace.decode_s", "s", "lower"},
		{"trace.decoded_blocks", "count", "lower"},
		{"trace.decode_passes", "ratio", "lower"},

		{"frontend.demand_lines_s", "s", "lower"},
		{"frontend.demand_lines", "count", "lower"},
		{"opt.min_replay_s", "s", "lower"},
		{"opt.evictions", "count", "lower"},
		{"opt.ideal_misses", "count", "lower"},

		{"core.analyze_s", "s", "lower"},
		{"core.analyze_alloc_mb", "MiB", "lower"},
		{"core.analyze_decode_passes", "ratio", "lower"},
		{"core.windows", "count", "lower"},
		{"core.window_scan_s", "s", "lower"},

		{"core.tune_s", "s", "lower"},
		{"core.tune_alloc_mb", "MiB", "lower"},
		{"core.plan_at_s", "s", "lower"},
		{"core.injections", "count", "lower"},
		{"core.cue_blocks", "count", "lower"},
		{"core.windows_covered_ratio", "ratio", "higher"},
		{"core.speedup_pct", "%", "higher"},
		{"core.run_plan_s", "s", "lower"},
		{"program.apply_s", "s", "lower"},

		{"frontend.run_s", "s", "lower"},
		{"frontend.runs", "count", "lower"},
		{"frontend.sim_blocks_per_s", "blocks/s", "higher"},
	}
	for _, p := range replacement.Names() {
		defs = append(defs, metricDef{"replacement." + p + "_s", "s", "lower"})
	}
	for _, p := range prefetch.Names() {
		defs = append(defs, metricDef{"prefetch." + p + "_s", "s", "lower"})
	}
	return append(defs, []metricDef{
		{"runner.jobs", "count", "lower"},
		{"runner.compute_s", "s", "lower"},
		{"runner.concurrency", "ratio", "higher"},
		{"runner.errors", "count", "lower"},
		{"runner.retries", "count", "lower"},

		{"watch.run_s", "s", "lower"},
		{"watch.epochs", "count", "lower"},
		{"watch.revisions", "count", "lower"},
		{"watch.epoch_s", "s", "lower"},
		{"watch.publish_ratio", "ratio", "lower"},
		{"watch.speedup_pct", "%", "higher"},
		{"core.analyze_window_s", "s", "lower"},
		{"core.tune_window_s", "s", "lower"},

		{"cache.l1i_demand_misses", "count", "lower"},
		{"cache.prefetch_useful_ratio", "ratio", "higher"},
		{"cache.hint_hit_ratio", "ratio", "higher"},
		{"cache.coverage", "ratio", "higher"},
		{"frontend.late_misses", "count", "lower"},
		{"bpred.branch_mpki", "MPKI", "lower"},

		{"bench.trace_overhead_s", "s", "lower"},
		{"bench.span_coverage", "ratio", "higher"},
	}...)
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill copies the values of defs into a metrics map. Every def must have
// a value: a metric the run could not measure is a bug in the benchmark.
func fill(defs []metricDef, vals map[string]float64) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, missing
}

// heapAllocBytes is the process's cumulative heap allocation.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuTime is the process's user plus system time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the median of xs (the mean of the middle two for an even
// count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
