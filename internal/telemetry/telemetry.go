// Package telemetry is Aegis's dependency-free observability layer: a
// concurrency-safe metrics registry (counters, gauges, fixed-bucket
// histograms, all with label support), zero-alloc stage timers that
// observe into histograms, and a leveled structured event log with a
// pluggable sink.
//
// The package is built for hot paths: instruments are looked up once
// (typically in a package-level var) and then updated with single atomic
// operations; the event log is a no-op unless a sink is installed; and a
// disabled registry turns every instrument update and timer start into an
// early return, so disabled telemetry costs roughly one atomic load.
//
// Timing feeds histograms, never values: a [Timer] observes its elapsed
// time into its histogram and returns nothing to the code it times.
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
	"time"
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
//
// The sum is an integer count of grid steps, so one multiset of
// observations gives the same sum in any order: a float sum would depend
// on the order parallel workers observe in. The name picks the grid. A
// timed histogram (name ending in _seconds or _ns) sums whole
// nanoseconds. Any other histogram sums data values on a grid of 2^-20
// (about 1e-6) up to a capacity of ±2^43 (about 8.8e12). Each observation
// rounds to the nearest step, and a sum past the capacity saturates there.
type Histogram struct {
	name    string
	labels  []Label
	enabled *atomic.Bool
	bounds  []float64     // ascending upper bounds; +Inf is implicit
	unit    time.Duration // what one unit of a timed observation is
	steps   float64       // grid steps per unit of an observed value
	buckets []atomic.Uint64
	sum     atomic.Int64 // in grid steps
	count   atomic.Uint64
}

// dataGridSteps is the grid of a histogram whose name carries no time
// unit: 2^20 steps per unit.
const dataGridSteps = 1 << 20

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if !h.enabled.Load() {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.addSteps(h.toSteps(v))
	h.count.Add(1)
}

// toSteps rounds v to the nearest grid step, clamped to the int64 range.
func (h *Histogram) toSteps(v float64) int64 {
	switch s := math.RoundToEven(v * h.steps); {
	case s >= math.MaxInt64: // 2^63 as a float64
		return math.MaxInt64
	case s <= math.MinInt64:
		return math.MinInt64
	default:
		return int64(s)
	}
}

// addSteps adds n steps to the sum, saturating at the int64 range.
func (h *Histogram) addSteps(n int64) {
	for {
		old := h.sum.Load()
		s := old + n
		if (s < old) != (n < 0) { // wrapped around
			s = math.MaxInt64
			if n < 0 {
				s = math.MinInt64
			}
		}
		if h.sum.CompareAndSwap(old, s) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values, on the histogram's grid.
func (h *Histogram) Sum() float64 { return float64(h.sum.Load()) / h.steps }

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

// Timer times one operation into a histogram. It is a value, so timing
// allocates nothing, and Stop returns nothing, so a measured duration
// reaches the histogram and never the timed code. The zero Timer is inert.
type Timer struct {
	h     *Histogram
	start time.Time
}

// Start starts a timer observing into h. With the registry disabled it
// costs one atomic load and returns an inert timer.
func (h *Histogram) Start() Timer {
	if !h.enabled.Load() {
		return Timer{}
	}
	return Timer{h: h, start: time.Now()}
}

// Stop observes the time since Start in the histogram's unit: nanoseconds
// for a name ending in _ns, seconds otherwise. Each call observes once.
func (t Timer) Stop() {
	if t.h != nil {
		t.h.observeSince(t.start)
	}
}

// observeSince is Stop's live path, kept apart so that Stop inlines and
// an inert timer costs its caller one nil check.
func (h *Histogram) observeSince(start time.Time) {
	h.Observe(float64(time.Since(start)) / float64(h.unit))
}

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

// stageBuckets bound MetricStageSeconds from a microsecond obfuscator tick
// to a fuzzing campaign of several minutes: 1 µs to about 18 min, ×4 apart.
var stageBuckets = ExpBuckets(1e-6, 4, 16)

// Registry holds a set of named instruments plus a logger.
// All methods are safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	counter map[string]*Counter
	gauge   map[string]*Gauge
	hist    map[string]*Histogram
	enabled atomic.Bool
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

// Enabled reports whether the registry records updates.
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
	unit, steps := time.Second, float64(dataGridSteps)
	switch {
	case strings.HasSuffix(name, "_ns"):
		unit, steps = time.Nanosecond, 1
	case strings.HasSuffix(name, "_seconds"):
		steps = float64(time.Second)
	}
	h := &Histogram{
		name:    name,
		labels:  labels,
		enabled: &r.enabled,
		bounds:  bounds,
		unit:    unit,
		steps:   steps,
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
	r.hist[k] = h
	return h
}

// Stage returns the MetricStageSeconds histogram of one named pipeline
// stage (label stage=name), which a stage times with Start and Stop.
func (r *Registry) Stage(name string) *Histogram {
	return r.Histogram(MetricStageSeconds, stageBuckets, L("stage", name))
}

// Package-level helpers bound to the default registry.

// C returns a counter from the default registry.
func C(name string, labels ...Label) *Counter { return std.Counter(name, labels...) }

// G returns a gauge from the default registry.
func G(name string, labels ...Label) *Gauge { return std.Gauge(name, labels...) }

// H returns a histogram from the default registry.
func H(name string, bounds []float64, labels ...Label) *Histogram {
	return std.Histogram(name, bounds, labels...)
}

// Stage returns a stage's duration histogram from the default registry.
func Stage(name string) *Histogram { return std.Stage(name) }

// Log returns the default registry's structured event log.
func Log() *Logger { return std.logger }
