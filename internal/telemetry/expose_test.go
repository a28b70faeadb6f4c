package telemetry

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

func populated() *Registry {
	r := NewRegistry()
	r.Counter("aegis_ticks_total").Add(42)
	r.Counter("aegis_skips_total", L("event", "RETIRED_UOPS")).Add(3)
	r.Gauge("aegis_cover_size").Set(5)
	h := r.Histogram("aegis_delta", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(7)
	h.Observe(100)
	return r
}

// artifactPopulated mirrors the artifact store's cache funnel: per-kind
// hit/miss/write counters, the corrupt-file signal and an IO latency
// histogram, all under the registered artifact_* names.
func artifactPopulated() *Registry {
	r := NewRegistry()
	r.Counter(MetricArtifactCacheHitsTotal, L("kind", "profile-trace")).Add(4)
	r.Counter(MetricArtifactCacheMissesTotal, L("kind", "profile-trace")).Add(2)
	r.Counter(MetricArtifactWritesTotal, L("kind", "profile-trace")).Add(2)
	r.Counter(MetricArtifactCorruptTotal).Inc()
	r.Histogram(MetricArtifactLoadSeconds, []float64{0.01, 0.1}).Observe(0.002)
	return r
}

func TestPrometheusGolden(t *testing.T) {
	r := populated()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	// Counters, then gauges, then histograms; alphabetical within a kind.
	want := `# TYPE aegis_skips_total counter
aegis_skips_total{event="RETIRED_UOPS"} 3
# TYPE aegis_ticks_total counter
aegis_ticks_total 42
# TYPE aegis_cover_size gauge
aegis_cover_size 5
# TYPE aegis_delta histogram
aegis_delta_bucket{le="1"} 1
aegis_delta_bucket{le="10"} 2
aegis_delta_bucket{le="+Inf"} 3
aegis_delta_sum 107.5
aegis_delta_count 3
`
	if got := b.String(); got != want {
		t.Errorf("prometheus output mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestPrometheusArtifactGolden(t *testing.T) {
	r := artifactPopulated()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE artifact_cache_hits_total counter
artifact_cache_hits_total{kind="profile-trace"} 4
# TYPE artifact_cache_misses_total counter
artifact_cache_misses_total{kind="profile-trace"} 2
# TYPE artifact_corrupt_total counter
artifact_corrupt_total 1
# TYPE artifact_writes_total counter
artifact_writes_total{kind="profile-trace"} 2
# TYPE artifact_load_seconds histogram
artifact_load_seconds_bucket{le="0.01"} 1
artifact_load_seconds_bucket{le="0.1"} 1
artifact_load_seconds_bucket{le="+Inf"} 1
artifact_load_seconds_sum 0.002
artifact_load_seconds_count 1
`
	if got := b.String(); got != want {
		t.Errorf("prometheus output mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestPrometheusLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", L("k", "a\"b\\c\nd")).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `esc_total{k="a\"b\\c\nd"} 1`) {
		t.Errorf("escaping wrong:\n%s", b.String())
	}
}

func TestJSONSnapshotRoundTrip(t *testing.T) {
	r := populated()
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters   []MetricPoint `json:"counters"`
		Gauges     []MetricPoint `json:"gauges"`
		Histograms []struct {
			Name  string  `json:"name"`
			Count uint64  `json:"count"`
			Sum   float64 `json:"sum"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal([]byte(b.String()), &snap); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if len(snap.Counters) != 2 || len(snap.Gauges) != 1 || len(snap.Histograms) != 1 {
		t.Fatalf("snapshot shape: %+v", snap)
	}
	if snap.Counters[1].Name != "aegis_ticks_total" || snap.Counters[1].Value != 42 {
		t.Errorf("counter point = %+v", snap.Counters[1])
	}
	if snap.Histograms[0].Count != 3 || math.Abs(snap.Histograms[0].Sum-107.5) > 1e-9 {
		t.Errorf("histogram point = %+v", snap.Histograms[0])
	}
}

func TestSnapshotCumulativeBuckets(t *testing.T) {
	r := populated()
	snap := r.Snapshot()
	h := snap.Histograms[0]
	if len(h.Buckets) != 3 {
		t.Fatalf("buckets = %+v", h.Buckets)
	}
	if h.Buckets[0].Count != 1 || h.Buckets[1].Count != 2 || h.Buckets[2].Count != 3 {
		t.Errorf("cumulative counts = %+v", h.Buckets)
	}
	if !math.IsInf(h.Buckets[2].UpperBound, 1) {
		t.Errorf("last bound = %v, want +Inf", h.Buckets[2].UpperBound)
	}
}

func TestHandlerFormats(t *testing.T) {
	r := populated()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("default content type = %q", ct)
	}

	res2, err := srv.Client().Get(srv.URL + "?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	if ct := res2.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("json content type = %q", ct)
	}
	var snap Snapshot
	if err := json.NewDecoder(res2.Body).Decode(&snap); err != nil {
		t.Fatalf("handler JSON invalid: %v", err)
	}
	if len(snap.Counters) != 2 {
		t.Errorf("handler snapshot counters = %d", len(snap.Counters))
	}
}

func TestSummary(t *testing.T) {
	r := NewRegistry()
	if got := r.Summary(); !strings.Contains(got, "no activity") {
		t.Errorf("empty summary = %q", got)
	}
	r.Counter("c_total").Add(2)
	r.Gauge("zero_gauge").Set(0) // zero metrics are elided
	r.Stage("phase").Start().Stop()
	got := r.Summary()
	if !strings.Contains(got, "c_total") || !strings.Contains(got, `stage_seconds{stage="phase"}`) {
		t.Errorf("summary missing entries:\n%s", got)
	}
	if strings.Contains(got, "zero_gauge") {
		t.Errorf("summary includes zero gauge:\n%s", got)
	}
}
