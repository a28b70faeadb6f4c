package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"

	"github.com/repro/aegis/internal/daemon"
)

// Toy-sized workloads: the same code paths as the benchmark's, small
// enough for the test suite.
var (
	toyCampaign = campaignSpec{
		candidates: 150, secrets: 4, top: 2, traceTicks: 80, repeats: 4,
		inputs: 2, minRuns: 4,
	}
	toySteps = 20
)

// toyFleets shrinks each fleet workload to 4 tenants, with churn and
// submits frequent enough to happen within toySteps steps.
func toyFleets() map[string]fleetSpec {
	out := make(map[string]fleetSpec)
	for name, spec := range fleetSpecs {
		spec.tenants = 4
		spec.warmup = 2
		if spec.churnEvery > 0 {
			spec.churnEvery = 7
		}
		if spec.submitEvery > 0 {
			spec.submitEvery, spec.submitTenants = 3, 2
		}
		out[name] = spec
	}
	return out
}

// readBenchmarkJSON parses the repository's BENCHMARK.json.
func readBenchmarkJSON(t *testing.T) (names []string, e2e, layers []metricDef) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var doc struct {
		Workloads []decl `json:"workloads"`
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	for _, d := range doc.EndToEnd {
		e2e = append(e2e, metricDef{d.Name, d.Unit})
	}
	for _, d := range doc.PerLayer {
		layers = append(layers, metricDef{d.Name, d.Unit})
	}
	return names, e2e, layers
}

func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	names, e2e, layers := readBenchmarkJSON(t)
	equal := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark reports %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %v, benchmark %v", what, i, got[i], want[i])
			}
		}
	}
	equal("end_to_end", e2e, endToEnd)
	equal("per_layer", layers, perLayer)
	if len(names) != len(workloadNames) {
		t.Fatalf("workloads: BENCHMARK.json %v, benchmark %v", names, workloadNames)
	}
	for i := range names {
		if names[i] != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %s, benchmark %s", i, names[i], workloadNames[i])
		}
	}
}

// checkResult asserts a run passed its checks and reported every declared
// metric, finite and in its declared unit.
func checkResult(t *testing.T, rep *report, defs []metricDef) result {
	t.Helper()
	res := rep.result(defs)
	for _, p := range rep.problems {
		t.Errorf("check failed: %s", p)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing", d.name)
			continue
		}
		if m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %v %s, want a finite value in %s", d.name, m.Value, m.Unit, d.unit)
		}
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(defs))
	}
	return res
}

func TestSmokeFleets(t *testing.T) {
	for name, spec := range toyFleets() {
		t.Run(name, func(t *testing.T) {
			res := checkResult(t, runFleet(spec, 1, toySteps, io.Discard), endToEnd)
			for _, m := range []string{"throughput_per_s", "latency_p50_ms", "setup_s", "heap_mb"} {
				if res.Metrics[m].Value <= 0 {
					t.Errorf("%s = %v, want > 0", m, res.Metrics[m].Value)
				}
			}

			res = checkResult(t, runFleetTraced(spec, 1, toySteps, io.Discard), perLayer)
			v := func(name string) float64 { return res.Metrics[name].Value }
			if v("ledger.valid") != 1 {
				t.Error("mirror did not reproduce the daemon's tenants")
			}
			// The layers plus the explicit remainder add up to the traced
			// end-to-end cost.
			parts := v("daemon.step_self_us_per_tt") + v("workload.job_us")*v("workload.jobs_per_tt") +
				v("workload.runner_us_per_tt") + v("obfuscator.tick_us_per_tt") +
				v("sev.step_self_us_per_tt") + v("ledger.unattributed_us_per_tt")
			if total := v("ledger.total_us_per_tt"); math.Abs(parts-total) > 1e-6*total {
				t.Errorf("layers sum to %v, total is %v", parts, total)
			}
			if v("obfuscator.defense_overhead_pct") <= 0 || v("microarch.sim_instr_per_tt") <= 0 {
				t.Error("the obfuscator injected nothing")
			}
			if rdpmc := v("hpc.rdpmc_per_tt"); (spec.mechanism == daemon.MechanismDStar) != (rdpmc > 0) {
				t.Errorf("hpc.rdpmc_per_tt = %v with mechanism %s", rdpmc, spec.mechanism)
			}
		})
	}
}

func TestSmokeCampaign(t *testing.T) {
	res := checkResult(t, runCampaigns(toyCampaign, 1, toyCampaign.minRuns, io.Discard), endToEnd)
	if res.Metrics["latency_p50_ms"].Value <= 0 {
		t.Error("no campaign latency")
	}
	res = checkResult(t, runCampaignsTraced(toyCampaign, 1, toyCampaign.minRuns, io.Discard), perLayer)
	if res.Metrics["ledger.valid"].Value != 1 {
		t.Error("layer-by-layer plan differs from the facade's")
	}
	v := func(name string) float64 { return res.Metrics[name].Value }
	if v("profiler.events_scored") <= 0 || v("fuzzer.fuzz_s") <= 0 {
		t.Error("campaign layers not measured")
	}
	parts := v("isa.cleanup_ms")/1e3 + v("profiler.warmup_s") + v("profiler.rank_s") +
		v("fuzzer.fuzz_s") + v("fuzzer.cover_ms")/1e3 + v("campaign.unattributed_s")
	if total := v("campaign.total_s"); math.Abs(parts-total) > 1e-9*total {
		t.Errorf("layers sum to %v, total is %v", parts, total)
	}
}

// A mirror built from the wrong seed must not match: the check that
// validates the ledger is not vacuous.
func TestMirrorDetectsMismatch(t *testing.T) {
	spec := toyFleets()["fleet-steady"]
	f, _, err := setupFleet(spec, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	for f.tick < 5 {
		f.step()
	}
	want := make(map[string]daemon.TenantStatus)
	for _, st := range f.statuses() {
		want[st.Name] = st
	}
	_, mismatches, err := replayMirror(spec, 2, f.script, func(int) tickMode { return tickMode{} }, want)
	if err != nil {
		t.Fatal(err)
	}
	if len(mismatches) == 0 {
		t.Error("a mirror seeded differently matched the daemon")
	}
	_, mismatches, err = replayMirror(spec, 1, f.script, func(int) tickMode { return tickMode{} }, want)
	if err != nil {
		t.Fatal(err)
	}
	if len(mismatches) != 0 {
		t.Errorf("same-seed mirror mismatched: %v", mismatches)
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{1, 1, 1, 9}, 1},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// TestRelIQR pins the quartiles to Python's statistics.quantiles(xs, n=4)
// (the "exclusive" method), which is how the benchmark's spread is judged.
func TestRelIQR(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		// quantiles([1..10]) = [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, (8.25 - 2.75) / 5.5},
		// quantiles([1,2,3,4,100]) = [1.5, 3.0, 52.0]
		{[]float64{1, 2, 3, 4, 100}, (52 - 1.5) / 3},
		{[]float64{7, 7, 7, 7}, 0},
	} {
		if got := relIQR(tc.in); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("relIQR(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestPace pins the scaling rule: timings are multiplied by the reference
// pace over the median probe time, so a host running at half the
// reference pace has its timings halved.
func TestPace(t *testing.T) {
	p := newPace()
	if got := p.factor(); got != 1 {
		t.Errorf("factor with no probes = %v, want 1", got)
	}
	p.burst()
	if len(p.samples) != paceBurst {
		t.Fatalf("%d probes recorded, want %d", len(p.samples), paceBurst)
	}
	for _, s := range p.samples {
		if s <= 0 {
			t.Errorf("probe time %v, want > 0", s)
		}
	}
	p.samples = []float64{3 * paceRefUs, 2 * paceRefUs, 1 * paceRefUs}
	if got := p.factor(); got != 0.5 {
		t.Errorf("factor = %v, want 0.5", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n, beyond int
		want      float64
	}{
		{1000, 10, 95}, // p99 is never reported
		{200, 10, 95},
		{199, 10, 90},
		{100, 10, 90},
		{99, 10, 75},
		{40, 10, 75},
		{39, 10, 50},
		{3, 10, 50},
		{600, 30, 95},
		{599, 30, 90},
	} {
		if got := tailPercentile(tc.n, tc.beyond); got != tc.want {
			t.Errorf("tailPercentile(%d, %d) = %v, want %v", tc.n, tc.beyond, got, tc.want)
		}
	}
}
