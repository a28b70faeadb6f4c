package telemetry

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_concurrent_total")
	const goroutines, perG = 16, 2000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Errorf("counter = %v, want %d", got, goroutines*perG)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("neg_total")
	c.Add(5)
	c.Add(-3)
	if got := c.Value(); got != 5 {
		t.Errorf("counter after negative add = %v, want 5", got)
	}
}

func TestCounterIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", L("event", "A"))
	b := r.Counter("x_total", L("event", "B"))
	a2 := r.Counter("x_total", L("event", "A"))
	if a == b {
		t.Error("different labels returned the same counter")
	}
	if a != a2 {
		t.Error("same name+labels returned distinct counters")
	}
	// Label order must not matter.
	p := r.Counter("y_total", L("a", "1"), L("b", "2"))
	q := r.Counter("y_total", L("b", "2"), L("a", "1"))
	if p != q {
		t.Error("label order changed counter identity")
	}
}

func TestGaugeSetAdd(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth")
	g.Set(10)
	g.Add(-4)
	if got := g.Value(); got != 6 {
		t.Errorf("gauge = %v, want 6", got)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 5, 10})
	// le semantics: v == bound falls into that bound's bucket.
	for _, v := range []float64{0.5, 1.0} { // both <= 1
		h.Observe(v)
	}
	h.Observe(1.0001) // (1, 5]
	h.Observe(5)      // (1, 5]
	h.Observe(9.99)   // (5, 10]
	h.Observe(10)     // (5, 10]
	h.Observe(10.01)  // +Inf
	h.Observe(1e9)    // +Inf

	want := []uint64{2, 2, 2, 2}
	got := h.BucketCounts()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d (all %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 8 {
		t.Errorf("count = %d, want 8", h.Count())
	}
	wantSum := 0.5 + 1 + 1.0001 + 5 + 9.99 + 10 + 10.01 + 1e9
	if math.Abs(h.Sum()-wantSum) > 1e-6 {
		t.Errorf("sum = %v, want %v", h.Sum(), wantSum)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("conc", []float64{10, 100})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(base float64) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(base)
			}
		}(float64(i * 30))
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("count = %d, want 8000", h.Count())
	}
}

// TestHistogramSumOrderIndependent feeds one multiset of data values and
// durations in three orders and from four goroutines. Every run must give
// a bit-identical Sum, which a float sum of values spanning nine decades
// does not.
func TestHistogramSumOrderIndependent(t *testing.T) {
	src := rand.New(rand.NewPCG(1, 2))
	const n = 2000
	values := make([]float64, n)
	durations := make([]time.Duration, n)
	var total time.Duration
	for i := range values {
		values[i] = src.Float64() * math.Pow(10, float64(src.IntN(10)-3))
		durations[i] = time.Duration(src.Int64N(int64(10 * time.Second)))
		total += durations[i]
	}
	perm := src.Perm(n)
	type sums struct{ data, secs, nanos float64 }
	run := func(feed func(observe func(i int))) sums {
		r := NewRegistry()
		data := r.Histogram("delta", nil)
		secs := r.Histogram("op_seconds", DefBuckets)
		nanos := r.Histogram("op_ns", nil)
		feed(func(i int) {
			data.Observe(values[i])
			secs.Observe(durations[i].Seconds())
			nanos.Observe(float64(durations[i]))
		})
		return sums{data.Sum(), secs.Sum(), nanos.Sum()}
	}
	inOrder := func(at func(i int) int) func(observe func(i int)) {
		return func(observe func(i int)) {
			for i := 0; i < n; i++ {
				observe(at(i))
			}
		}
	}
	want := run(inOrder(func(i int) int { return i }))
	// Timers sum whole nanoseconds.
	if want.secs != float64(total)/float64(time.Second) || want.nanos != float64(total) {
		t.Errorf("duration sums = %v s, %v ns, want %v s, %d ns", want.secs, want.nanos, total.Seconds(), total)
	}
	got := map[string]sums{
		"reverse":  run(inOrder(func(i int) int { return n - 1 - i })),
		"shuffled": run(inOrder(func(i int) int { return perm[i] })),
		"4 goroutines": run(func(observe func(i int)) {
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := g; i < n; i += 4 {
						observe(i)
					}
				}()
			}
			wg.Wait()
		}),
	}
	bits := func(s sums) [3]uint64 {
		return [3]uint64{math.Float64bits(s.data), math.Float64bits(s.secs), math.Float64bits(s.nanos)}
	}
	for name, s := range got {
		if bits(s) != bits(want) {
			t.Errorf("%s: sums %+v, want %+v as fed in order", name, s, want)
		}
	}

	// At the capacity of a data histogram: 2^63-1 steps of 2^-20. Three
	// values reach it exactly in any order; one more step saturates
	// there instead of wrapping, and so does a value past the capacity.
	t.Run("capacity", func(t *testing.T) {
		vs := []float64{0x1p42, 0x1p42 - 0x1p-10, 1023 * 0x1p-20}
		for _, order := range [][3]int{{0, 1, 2}, {2, 1, 0}, {1, 2, 0}} {
			h := NewRegistry().Histogram("delta", nil)
			for _, i := range order {
				h.Observe(vs[i])
			}
			if got := h.sum.Load(); got != math.MaxInt64 {
				t.Errorf("order %v: sum = %d steps, want %d", order, got, int64(math.MaxInt64))
			}
			h.Observe(0x1p-20)
			h.Observe(1e300)
			if got := h.sum.Load(); got != math.MaxInt64 {
				t.Errorf("order %v: past capacity: sum = %d steps, want it saturated", order, got)
			}
			if h.Sum() != 0x1p43 {
				t.Errorf("order %v: Sum() = %v at capacity, want 2^43", order, h.Sum())
			}
		}
		h := NewRegistry().Histogram("delta", nil)
		h.Observe(-0x1p42)
		h.Observe(-0x1p42)
		h.Observe(-1)
		h.Observe(math.Inf(-1))
		if got := h.sum.Load(); got != math.MinInt64 {
			t.Errorf("negative capacity: sum = %d steps, want %d", got, int64(math.MinInt64))
		}
	})
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 10, 3)
	wantE := []float64{1, 10, 100}
	for i := range wantE {
		if exp[i] != wantE[i] {
			t.Fatalf("ExpBuckets = %v", exp)
		}
	}
}

func TestDisabledRegistryIsInert(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("off_total")
	g := r.Gauge("off_gauge")
	h := r.Histogram("off_hist", []float64{1})
	r.SetEnabled(false)
	c.Inc()
	g.Set(9)
	h.Observe(0.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Error("disabled registry recorded updates")
	}
	h.Start().Stop()
	var zero Timer
	zero.Stop() // the zero timer is inert
	if h.Count() != 0 {
		t.Error("disabled timer observed")
	}
	r.SetEnabled(true)
	c.Inc()
	if c.Value() != 1 {
		t.Error("re-enabled counter did not record")
	}
}

func TestLoggerNoSinkIsNoop(t *testing.T) {
	var l Logger
	l.Info("dropped", F("k", 1)) // must not panic or block
}

func TestLoggerLevelsAndSink(t *testing.T) {
	var l Logger
	sink := &MemorySink{}
	l.SetSink(sink)
	l.Warn("kept", F("event", "X"), F("n", 3))
	events := sink.Events()
	if len(events) != 1 {
		t.Fatalf("events = %d, want 1", len(events))
	}
	e := events[0]
	if e.Level != LevelWarn || e.Msg != "kept" || len(e.Fields) != 2 {
		t.Errorf("event = %+v", e)
	}
	if e.Fields[0].Key != "event" || e.Fields[0].Value != "X" {
		t.Errorf("field = %+v", e.Fields[0])
	}
}

// MemorySink buffers events in memory so tests can assert on logs.
type MemorySink struct {
	mu     sync.Mutex
	events []Event
}

// Emit implements Sink.
func (s *MemorySink) Emit(e Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// Events returns a copy of the buffered events.
func (s *MemorySink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}
