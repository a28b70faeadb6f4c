// Package telemetry is Aegis's dependency-free observability layer: a
// concurrency-safe metrics registry (counters, gauges, fixed-bucket
// histograms, all with label support), lightweight span tracing with
// parent linkage and a ring-buffered span log, and a leveled structured
// event log with a pluggable sink.
//
// The package is built for hot paths: instruments are looked up once
// (typically in a package-level var) and then updated with single atomic
// operations; the event log is a no-op unless a sink is installed; and a
// disabled registry turns every instrument update and span start into an
// early return, so disabled telemetry costs roughly one atomic load.
//
// Exposition is available as a JSON snapshot ([Registry.WriteJSON]), as
// Prometheus text format ([Registry.WritePrometheus]), via an optional
// net/http handler ([Registry.Handler]), and as a human-readable summary
// ([Registry.Summary]) printed by the aegisctl and aegis-bench CLIs.
package telemetry

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value metric dimension.
type Label struct {
	Key   string
	Value string
}

// L builds a label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// atomicFloat is a float64 updated with atomic compare-and-swap on its
// IEEE-754 bits.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Load() float64   { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing metric.
type Counter struct {
	name    string
	labels  []Label
	enabled *atomic.Bool
	val     atomicFloat
}

// Add increments the counter; negative deltas are ignored.
func (c *Counter) Add(v float64) {
	if v < 0 || !c.enabled.Load() {
		return
	}
	c.val.Add(v)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 { return c.val.Load() }

// Name returns the metric name.
func (c *Counter) Name() string { return c.name }

// Gauge is a metric that can go up and down.
type Gauge struct {
	name    string
	labels  []Label
	enabled *atomic.Bool
	val     atomicFloat
}

// Set stores the gauge value.
func (g *Gauge) Set(v float64) {
	if !g.enabled.Load() {
		return
	}
	g.val.Store(v)
}

// Add moves the gauge by delta (may be negative).
func (g *Gauge) Add(v float64) {
	if !g.enabled.Load() {
		return
	}
	g.val.Add(v)
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return g.val.Load() }

// Name returns the metric name.
func (g *Gauge) Name() string { return g.name }

// Histogram accumulates observations into fixed buckets. A value v lands
// in the first bucket whose upper bound satisfies v <= bound (Prometheus
// "le" semantics); values above every bound land in the implicit +Inf
// bucket.
type Histogram struct {
	name    string
	labels  []Label
	enabled *atomic.Bool
	bounds  []float64 // ascending upper bounds; +Inf is implicit
	buckets []atomic.Uint64
	sum     atomicFloat
	count   atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if !h.enabled.Load() {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// BucketCounts returns the per-bucket (non-cumulative) counts; the last
// entry is the +Inf bucket.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Name returns the metric name.
func (h *Histogram) Name() string { return h.name }

// DefBuckets are general-purpose duration buckets in seconds.
var DefBuckets = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// ExpBuckets returns n ascending bounds start, start*factor, ...
func ExpBuckets(start, factor float64, n int) []float64 {
	if n < 1 {
		n = 1
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Registry holds a set of named instruments plus a tracer and a logger.
// All methods are safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	counter map[string]*Counter
	gauge   map[string]*Gauge
	hist    map[string]*Histogram
	enabled atomic.Bool
	tracer  *Tracer
	logger  *Logger
}

// NewRegistry builds an enabled, empty registry.
func NewRegistry() *Registry {
	r := &Registry{
		counter: make(map[string]*Counter),
		gauge:   make(map[string]*Gauge),
		hist:    make(map[string]*Histogram),
		logger:  &Logger{},
	}
	r.enabled.Store(true)
	r.tracer = newTracer(&r.enabled, defaultSpanRing)
	return r
}

// std is the process-wide default registry used by the package-level
// helpers and by Aegis's internal instrumentation.
var std = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return std }

// SetEnabled switches every instrument of the registry between live and
// no-op mode. Disabled instruments ignore updates but keep their values.
func (r *Registry) SetEnabled(on bool) { r.enabled.Store(on) }

// Enabled reports whether the registry records updates. Hot paths use it
// to skip work (e.g. time.Now calls) feeding disabled instruments.
func (r *Registry) Enabled() bool { return r.enabled.Load() }

// key builds the identity of an instrument: name plus sorted labels.
func key(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte('|')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

func sortLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Counter returns the counter with the given name and labels, creating it
// on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	labels = sortLabels(labels)
	k := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counter[k]; ok {
		return c
	}
	c := &Counter{name: name, labels: labels, enabled: &r.enabled}
	r.counter[k] = c
	return c
}

// Gauge returns the gauge with the given name and labels, creating it on
// first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	labels = sortLabels(labels)
	k := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauge[k]; ok {
		return g
	}
	g := &Gauge{name: name, labels: labels, enabled: &r.enabled}
	r.gauge[k] = g
	return g
}

// Histogram returns the histogram with the given name, buckets and labels,
// creating it on first use. Bounds must be ascending; an existing
// histogram keeps its original buckets.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	labels = sortLabels(labels)
	k := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hist[k]; ok {
		return h
	}
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	bounds = append([]float64(nil), bounds...)
	sort.Float64s(bounds)
	h := &Histogram{
		name:    name,
		labels:  labels,
		enabled: &r.enabled,
		bounds:  bounds,
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
	r.hist[k] = h
	return h
}

// Tracer returns the registry's span tracer.
func (r *Registry) Tracer() *Tracer { return r.tracer }

// Package-level helpers bound to the default registry.

// C returns a counter from the default registry.
func C(name string, labels ...Label) *Counter { return std.Counter(name, labels...) }

// G returns a gauge from the default registry.
func G(name string, labels ...Label) *Gauge { return std.Gauge(name, labels...) }

// H returns a histogram from the default registry.
func H(name string, bounds []float64, labels ...Label) *Histogram {
	return std.Histogram(name, bounds, labels...)
}

// StartSpan opens a root span on the default registry's tracer.
func StartSpan(name string) *Span { return std.tracer.Start(name) }

// Enabled reports whether the default registry records updates.
func Enabled() bool { return std.Enabled() }

// Log returns the default registry's structured event log.
func Log() *Logger { return std.logger }
