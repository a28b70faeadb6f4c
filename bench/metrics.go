package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported metric and its unit. The lists below are
// the benchmark's contract with BENCHMARK.json: bench_test.go checks that
// the file declares exactly these names and units.
type metricDef struct {
	name, unit string
}

// endToEnd are the untraced run's metrics, reported on every workload.
var endToEnd = []metricDef{
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"setup_s", "s"},
	{"heap_mb", "MB"},
}

// perLayer are the traced run's metrics. Fleet metrics are normalised per
// tenant-tick (_per_tt); a layer a workload never exercises reads 0.
var perLayer = []metricDef{
	{"daemon.step_self_us_per_tt", "us"},
	{"daemon.attach_ms", "ms"},
	{"daemon.submit_us", "us"},
	{"daemon.shed_ratio", "ratio"},
	{"daemon.refused_ratio", "ratio"},
	{"workload.job_us", "us"},
	{"workload.jobs_per_tt", "count"},
	{"workload.runner_us_per_tt", "us"},
	{"sev.step_self_us_per_tt", "us"},
	{"microarch.sim_instr_per_tt", "count"},
	{"microarch.host_ns_per_sim_instr", "ns"},
	{"obfuscator.tick_us_per_tt", "us"},
	{"obfuscator.defense_overhead_pct", "%"},
	{"obfuscator.draw_ns", "ns"},
	{"obfuscator.draws_per_tt", "count"},
	{"obfuscator.degraded_tick_ratio", "ratio"},
	{"obfuscator.retries_per_tt", "count"},
	{"hpc.rdpmc_ns", "ns"},
	{"hpc.rdpmc_per_tt", "count"},
	{"flight.record_ns", "ns"},
	{"flight.records_per_tt", "count"},
	{"go.alloc_bytes_per_tt", "B"},
	{"go.gc_pause_ms_per_s", "ms/s"},
	{"ledger.total_us_per_tt", "us"},
	{"ledger.unattributed_us_per_tt", "us"},
	{"ledger.trace_overhead_pct", "%"},
	{"ledger.valid", "count"},
	{"isa.cleanup_ms", "ms"},
	{"profiler.warmup_s", "s"},
	{"profiler.rank_s", "s"},
	{"profiler.events_scored", "count"},
	{"stats.fitpca_us", "us"},
	{"stats.mi_us", "us"},
	{"fuzzer.fuzz_s", "s"},
	{"fuzzer.cover_ms", "ms"},
	{"fuzzer.candidates_per_s", "1/s"},
	{"fuzzer.confirm_ratio", "ratio"},
	{"fuzzer.screen_memo_hit_ratio", "ratio"},
	{"parallel.busy_ratio", "ratio"},
	{"campaign.total_s", "s"},
	{"campaign.unattributed_s", "s"},
	{"host.pace_us", "us"},
}

// metricValue is one reported measurement.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects one run's metric values and correctness checks.
type report struct {
	values    map[string]float64
	problems  []string
	attempted int64
	failed    int64
}

func newReport() *report { return &report{values: make(map[string]float64)} }

// set records a metric value by name.
func (r *report) set(name string, v float64) { r.values[name] = v }

// check records a failed correctness check unless ok holds.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// result renders the metrics of defs. A metric the run did not set reads
// 0 (its layer was not exercised); a non-finite value is a failed check.
func (r *report) result(defs []metricDef) result {
	out := result{
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.name] = true
		v := r.values[d.name]
		r.check(!math.IsNaN(v) && !math.IsInf(v, 0), "metric %s is not finite: %v", d.name, v)
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	var stray []string
	for name := range r.values {
		if !known[name] {
			stray = append(stray, name)
		}
	}
	sort.Strings(stray)
	for _, name := range stray {
		r.check(false, "metric %s is not declared", name)
	}
	out.Correct = len(r.problems) == 0 && r.failed == 0
	return out
}
