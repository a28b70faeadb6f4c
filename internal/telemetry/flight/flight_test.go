package flight

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestKindNamesRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		name := k.String()
		if name == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		got, ok := KindByName(name)
		if !ok || got != k {
			t.Fatalf("KindByName(%q) = %v, %v; want %v, true", name, got, ok, k)
		}
	}
	if _, ok := KindByName("no-such-kind"); ok {
		t.Fatal("KindByName accepted an unknown name")
	}
}

func TestCodeNamesRoundTrip(t *testing.T) {
	seen := make(map[string]Code, numCodes)
	for c := Code(0); c < numCodes; c++ {
		name := c.String()
		if name == "" || name == "unknown" {
			t.Fatalf("code %d has no name", c)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("codes %d and %d share wire name %q", prev, c, name)
		}
		seen[name] = c
		got, ok := CodeByName(name)
		if !ok || got != c {
			t.Fatalf("CodeByName(%q) = %v, %v; want %v, true", name, got, ok, c)
		}
	}
}

func TestRecorderSeqAndWrap(t *testing.T) {
	r := NewRecorder(4)
	h := r.Handle(KindObfuscatorTick)
	for i := 1; i <= 6; i++ {
		h.Record(int64(i), CodeTickInjected, CodeMechLaplace, 0, 0, 0)
	}
	if got := r.Total(); got != 6 {
		t.Fatalf("Total = %d, want 6", got)
	}
	recs := r.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("retained %d records, want capacity 4", len(recs))
	}
	for i, rec := range recs {
		want := uint64(i + 3) // seqs 3..6 survive the wrap
		if rec.Seq != want {
			t.Fatalf("record %d has seq %d, want %d (oldest-first order)", i, rec.Seq, want)
		}
	}
}

func TestNilHandleIsInert(t *testing.T) {
	var h *Handle
	h.Record(1, CodeTickInjected, CodeNone, 0, 0, 0)
	h.Incident(1, CodeTickInjected, CodeNone, 0, 0, 0)
	if got := NewRecorder(1).Handle(Kind(200)); got != nil {
		t.Fatalf("Handle(out of range) = %v, want nil", got)
	}
}

// TestConcurrentRecordAndDump exercises the ring under parallel writers
// and concurrent dumps; run with -race this is the data-race gate for the
// recorder.
func TestConcurrentRecordAndDump(t *testing.T) {
	r := NewRecorder(64)
	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := r.Handle(Kind(w % int(numKinds)))
			for i := 0; i < perWriter; i++ {
				if i%16 == 0 {
					h.Incident(int64(i), CodeDegradedPMURead, CodeNone, 0, 0, 0)
				} else {
					h.Record(int64(i), CodeTickInjected, CodeMechDStar, 1, 2, 3)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var buf bytes.Buffer
			if err := r.WriteJSONL(&buf, DumpOptions{Window: 32}); err != nil {
				t.Errorf("dump: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if got, want := r.Total(), uint64(writers*perWriter); got != want {
		t.Fatalf("Total = %d, want %d", got, want)
	}
	recs := r.Snapshot()
	if len(recs) != 64 {
		t.Fatalf("retained %d, want 64", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq != recs[i-1].Seq+1 {
			t.Fatalf("seq not monotonic at %d: %d -> %d", i, recs[i-1].Seq, recs[i].Seq)
		}
	}
}

func TestDefaultRecorderAndGet(t *testing.T) {
	if Default() == nil {
		t.Fatal("default recorder must exist")
	}
	h := Get(KindWorldStep)
	if h == nil || h.kind != KindWorldStep {
		t.Fatalf("Get returned %+v", h)
	}
	if h != Default().Handle(KindWorldStep) {
		t.Fatal("Get must return the pre-registered handle, not a copy")
	}
}

func TestDumpSinceFilter(t *testing.T) {
	r := NewRecorder(16)
	h := r.Handle(KindPMU)
	for i := 1; i <= 5; i++ {
		h.Record(int64(i), CodePMURearmed, CodeNone, float64(i), 0, 0)
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf, DumpOptions{Since: 3}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 { // header + seq 4, 5
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], `"seq_first":4`) || !strings.Contains(lines[0], `"seq_last":5`) {
		t.Fatalf("header bounds wrong: %s", lines[0])
	}
}

// Kinds returns all registered kinds in declaration order.
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// CodeByName resolves a wire name back to its code.
func CodeByName(name string) (Code, bool) {
	for c := Code(0); c < numCodes; c++ {
		if codeNames[c] == name {
			return c, true
		}
	}
	return 0, false
}
