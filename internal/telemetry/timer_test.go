package telemetry

import (
	"sync"
	"testing"
	"time"
)

func TestTimerObservesOnce(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("op_seconds", DefBuckets)
	h.Start().Stop()
	if h.Count() != 1 {
		t.Fatalf("enabled timer: count = %d, want 1", h.Count())
	}
	r.SetEnabled(false)
	tm := h.Start()
	r.SetEnabled(true)
	tm.Stop() // started disabled: inert even if the registry turns on
	if h.Count() != 1 {
		t.Errorf("disabled timer: count = %d, want 1", h.Count())
	}
}

func TestTimerMeasuresElapsed(t *testing.T) {
	r := NewRegistry()
	secs := r.Histogram("sleep_seconds", DefBuckets)
	nanos := r.Histogram("sleep_ns", ExpBuckets(1e3, 10, 8))
	st, nt := secs.Start(), nanos.Start()
	time.Sleep(time.Millisecond)
	nt.Stop()
	st.Stop()
	// The histogram's name picks the unit: seconds, or ns for _ns.
	if s := secs.Sum(); s < 1e-3 || s > 10 {
		t.Errorf("sleep_seconds sum = %v, want >= 1e-3 s", s)
	}
	if n := nanos.Sum(); n < 1e6 || n > 1e10 {
		t.Errorf("sleep_ns sum = %v, want >= 1e6 ns", n)
	}
}

func TestStageTimersPerName(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 3; i++ {
		r.Stage("b").Start().Stop()
	}
	r.Stage("a").Start().Stop()
	if r.Stage("a") == r.Stage("b") {
		t.Fatal("two stages share one histogram")
	}
	var got []string
	for _, h := range r.Snapshot().Histograms {
		if h.Name == MetricStageSeconds {
			got = append(got, h.Labels["stage"])
			if want := map[string]uint64{"a": 1, "b": 3}[h.Labels["stage"]]; h.Count != want {
				t.Errorf("stage %s count = %d, want %d", h.Labels["stage"], h.Count, want)
			}
			if n := len(h.Buckets); n != len(stageBuckets)+1 {
				t.Errorf("stage %s has %d buckets, want %d", h.Labels["stage"], n, len(stageBuckets)+1)
			}
		}
	}
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("stage series = %v, want [a b]", got)
	}
}

func TestTimersConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Stage("work")
	const goroutines, perG = 8, 200
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				tm := h.Start()
				r.Stage("inner").Start().Stop()
				tm.Stop()
			}
		}()
	}
	wg.Wait()
	if h.Count() != goroutines*perG || r.Stage("inner").Count() != goroutines*perG {
		t.Errorf("counts = %d, %d, want %d each", h.Count(), r.Stage("inner").Count(), goroutines*perG)
	}
}
