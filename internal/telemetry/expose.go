package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// MetricPoint is one counter or gauge series in a snapshot.
type MetricPoint struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// BucketPoint is one cumulative histogram bucket; UpperBound is +Inf for
// the last bucket.
type BucketPoint struct {
	UpperBound float64 `json:"-"`
	Count      uint64  `json:"count"`
}

// bucketPointJSON carries the upper bound as a string so +Inf survives
// JSON encoding.
type bucketPointJSON struct {
	UpperBound string `json:"le"`
	Count      uint64 `json:"count"`
}

// MarshalJSON implements json.Marshaler.
func (b BucketPoint) MarshalJSON() ([]byte, error) {
	return json.Marshal(bucketPointJSON{UpperBound: formatValue(b.UpperBound), Count: b.Count})
}

// UnmarshalJSON implements json.Unmarshaler.
func (b *BucketPoint) UnmarshalJSON(data []byte) error {
	var raw bucketPointJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	if raw.UpperBound == "+Inf" {
		b.UpperBound = math.Inf(1)
	} else {
		v, err := strconv.ParseFloat(raw.UpperBound, 64)
		if err != nil {
			return err
		}
		b.UpperBound = v
	}
	b.Count = raw.Count
	return nil
}

// HistogramPoint is one histogram series in a snapshot.
type HistogramPoint struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Count   uint64            `json:"count"`
	Sum     float64           `json:"sum"`
	Buckets []BucketPoint     `json:"buckets"`
}

// Snapshot is a point-in-time copy of every instrument, ordered
// deterministically (by name, then label signature).
type Snapshot struct {
	Counters   []MetricPoint    `json:"counters"`
	Gauges     []MetricPoint    `json:"gauges"`
	Histograms []HistogramPoint `json:"histograms"`
}

func labelMap(labels []Label) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.Key] = l.Value
	}
	return m
}

func labelSig(labels []Label) string { return key("", labels) }

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counter))
	for _, c := range r.counter {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauge))
	for _, g := range r.gauge {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(r.hist))
	for _, h := range r.hist {
		hists = append(hists, h)
	}
	r.mu.Unlock()

	var snap Snapshot
	sort.Slice(counters, func(i, j int) bool {
		if counters[i].name != counters[j].name {
			return counters[i].name < counters[j].name
		}
		return labelSig(counters[i].labels) < labelSig(counters[j].labels)
	})
	for _, c := range counters {
		snap.Counters = append(snap.Counters, MetricPoint{
			Name: c.name, Labels: labelMap(c.labels), Value: c.Value(),
		})
	}
	sort.Slice(gauges, func(i, j int) bool {
		if gauges[i].name != gauges[j].name {
			return gauges[i].name < gauges[j].name
		}
		return labelSig(gauges[i].labels) < labelSig(gauges[j].labels)
	})
	for _, g := range gauges {
		snap.Gauges = append(snap.Gauges, MetricPoint{
			Name: g.name, Labels: labelMap(g.labels), Value: g.Value(),
		})
	}
	sort.Slice(hists, func(i, j int) bool {
		if hists[i].name != hists[j].name {
			return hists[i].name < hists[j].name
		}
		return labelSig(hists[i].labels) < labelSig(hists[j].labels)
	})
	for _, h := range hists {
		hp := HistogramPoint{
			Name: h.name, Labels: labelMap(h.labels), Count: h.Count(), Sum: h.Sum(),
		}
		var cum uint64
		counts := h.BucketCounts()
		for i, b := range h.bounds {
			cum += counts[i]
			hp.Buckets = append(hp.Buckets, BucketPoint{UpperBound: b, Count: cum})
		}
		cum += counts[len(counts)-1]
		hp.Buckets = append(hp.Buckets, BucketPoint{UpperBound: math.Inf(1), Count: cum})
		snap.Histograms = append(snap.Histograms, hp)
	}
	return snap
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// promLabels renders a {k="v",...} block including extra pairs; empty when
// there are no labels.
func promLabels(labels map[string]string, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for _, k := range keys {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, `%s="%s"`, k, escapeLabelValue(labels[k]))
	}
	if extraKey != "" {
		if !first {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraKey, extraVal)
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus writes every metric in the Prometheus text exposition
// format (0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	typed := make(map[string]bool)
	writeType := func(name, kind string) {
		if !typed[name] {
			typed[name] = true
			fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
		}
	}
	for _, c := range snap.Counters {
		writeType(c.Name, "counter")
		fmt.Fprintf(w, "%s%s %s\n", c.Name, promLabels(c.Labels, "", ""), formatValue(c.Value))
	}
	for _, g := range snap.Gauges {
		writeType(g.Name, "gauge")
		fmt.Fprintf(w, "%s%s %s\n", g.Name, promLabels(g.Labels, "", ""), formatValue(g.Value))
	}
	for _, h := range snap.Histograms {
		writeType(h.Name, "histogram")
		for _, b := range h.Buckets {
			fmt.Fprintf(w, "%s_bucket%s %d\n",
				h.Name, promLabels(h.Labels, "le", formatValue(b.UpperBound)), b.Count)
		}
		fmt.Fprintf(w, "%s_sum%s %s\n", h.Name, promLabels(h.Labels, "", ""), formatValue(h.Sum))
		fmt.Fprintf(w, "%s_count%s %d\n", h.Name, promLabels(h.Labels, "", ""), h.Count)
	}
	return nil
}

// Handler serves the registry over HTTP: Prometheus text by default, the
// JSON snapshot with ?format=json. Mount it wherever the embedding service
// exposes metrics, e.g.:
//
//	http.Handle("/metrics", telemetry.Default().Handler())
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "json" ||
			strings.Contains(req.Header.Get("Accept"), "application/json") {
			w.Header().Set("Content-Type", "application/json")
			_ = r.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// Summary renders a compact human-readable digest: non-zero counters and
// gauges, and histogram count/mean. CLIs print it after a run.
func (r *Registry) Summary() string {
	snap := r.Snapshot()
	var b strings.Builder
	wroteAny := false
	section := func(title string) { fmt.Fprintf(&b, "%s:\n", title) }

	var counters []MetricPoint
	for _, c := range snap.Counters {
		if c.Value != 0 {
			counters = append(counters, c)
		}
	}
	if len(counters) > 0 {
		wroteAny = true
		section("counters")
		for _, c := range counters {
			fmt.Fprintf(&b, "  %-46s %s\n", c.Name+promLabels(c.Labels, "", ""), formatValue(c.Value))
		}
	}
	var gauges []MetricPoint
	for _, g := range snap.Gauges {
		if g.Value != 0 {
			gauges = append(gauges, g)
		}
	}
	if len(gauges) > 0 {
		wroteAny = true
		section("gauges")
		for _, g := range gauges {
			fmt.Fprintf(&b, "  %-46s %s\n", g.Name+promLabels(g.Labels, "", ""), formatValue(g.Value))
		}
	}
	var hists []HistogramPoint
	for _, h := range snap.Histograms {
		if h.Count != 0 {
			hists = append(hists, h)
		}
	}
	if len(hists) > 0 {
		wroteAny = true
		section("histograms")
		for _, h := range hists {
			mean := h.Sum / float64(h.Count)
			fmt.Fprintf(&b, "  %-46s count=%d sum=%s mean=%s\n",
				h.Name+promLabels(h.Labels, "", ""), h.Count, formatValue(h.Sum), formatValue(mean))
		}
	}
	if !wroteAny {
		return "telemetry: no activity recorded\n"
	}
	return b.String()
}
