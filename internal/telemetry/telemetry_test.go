package telemetry

import (
	"math"
	"sync"
	"testing"
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
