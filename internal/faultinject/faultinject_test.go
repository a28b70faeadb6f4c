package faultinject

import (
	"sync"
	"testing"
)

// trace replays n queries of every kind against a handle and records the
// outcomes, fingerprinting one site's fault schedule.
func trace(h *Handle, n int) []bool {
	var out []bool
	for i := 0; i < n; i++ {
		out = append(out, h.PMUReadError())
		_, sat := h.CounterSaturation()
		out = append(out, sat)
		out = append(out, h.PreemptBudget(1000) < 1000)
		_, gi := h.GadgetInterrupt(8)
		out = append(out, gi)
		_, de := h.DrawExtreme()
		out = append(out, de)
	}
	return out
}

func heavy(seed uint64) Config {
	cfg, err := Preset(PresetHeavy, seed)
	if err != nil {
		panic(err)
	}
	return cfg
}

func TestNilInjectorAndHandleAreHealthy(t *testing.T) {
	var in *Injector
	if in.Total() != 0 {
		t.Error("nil injector not inert")
	}
	h := in.Handle("anything")
	if h != nil {
		t.Fatal("nil injector must derive nil handles")
	}
	if h.PMUReadError() {
		t.Error("nil handle injected a fault")
	}
	if _, ok := h.CounterSaturation(); ok {
		t.Error("nil handle saturated a counter")
	}
	if got := h.PreemptBudget(1234); got != 1234 {
		t.Errorf("nil handle changed the budget: %d", got)
	}
	if _, ok := h.GadgetInterrupt(16); ok {
		t.Error("nil handle interrupted a gadget")
	}
	if _, ok := h.DrawExtreme(); ok {
		t.Error("nil handle injected a draw extreme")
	}
	if h.Total() != 0 {
		t.Error("nil handle counted faults")
	}
	if New(Config{}) != nil {
		t.Error("New of a zero config must return the nil injector")
	}
}

func TestSchedulesAreDeterministicPerLabels(t *testing.T) {
	a := New(heavy(42)).Handle("sev", "vm0/vcpu0")
	b := New(heavy(42)).Handle("sev", "vm0/vcpu0")
	ta, tb := trace(a, 200), trace(b, 200)
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("schedules diverge at query %d", i)
		}
	}
	if a.Total() == 0 {
		t.Fatal("heavy preset injected nothing in 200 queries")
	}
	if a.Total() != b.Total() {
		t.Errorf("counts differ: %d vs %d", a.Total(), b.Total())
	}
}

func TestSchedulesDifferAcrossLabelsAndSeeds(t *testing.T) {
	in := New(heavy(42))
	same := 0
	ta := trace(in.Handle("site-a"), 300)
	tb := trace(in.Handle("site-b"), 300)
	for i := range ta {
		if ta[i] == tb[i] {
			same++
		}
	}
	if same == len(ta) {
		t.Error("different labels replayed an identical schedule")
	}
	tc := trace(New(heavy(43)).Handle("site-a"), 300)
	same = 0
	for i := range ta {
		if ta[i] == tc[i] {
			same++
		}
	}
	if same == len(ta) {
		t.Error("different seeds replayed an identical schedule")
	}
}

func TestHandleDerivationIsOrderIndependent(t *testing.T) {
	// Deriving other handles first (in any order, from any goroutine)
	// must not change what a labelled site sees.
	in1 := New(heavy(7))
	ref := trace(in1.Handle("obfuscator"), 100)

	in2 := New(heavy(7))
	var wg sync.WaitGroup
	for _, l := range []string{"sev", "fuzzer", "other"} {
		wg.Add(1)
		go func(label string) {
			defer wg.Done()
			_ = trace(in2.Handle(label), 50)
		}(l)
	}
	wg.Wait()
	got := trace(in2.Handle("obfuscator"), 100)
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("schedule perturbed by sibling handles at query %d", i)
		}
	}
}

func TestPreemptionBursts(t *testing.T) {
	cfg := Config{Seed: 1, PreemptionRate: 1, PreemptionBurstTicks: 3, PreemptionBudgetFrac: 0.25}
	h := New(cfg).Handle("vcpu")
	// Rate 1: the first tick starts a burst lasting 3 ticks.
	for i := 0; i < 3; i++ {
		if got := h.PreemptBudget(2000); got != 500 {
			t.Fatalf("tick %d budget = %d, want 500", i, got)
		}
	}
	if h.preemptLeft == 0 && h.Total() != 1 {
		t.Error("burst not accounted as one fault")
	}
	// The tick after the burst immediately starts the next (rate 1).
	if got := h.PreemptBudget(2000); got != 500 {
		t.Errorf("post-burst tick budget = %d (new burst expected)", got)
	}
	if h.Total() != 2 {
		t.Errorf("preemption faults = %d, want 2 (one per burst)", h.Total())
	}
	// Budget floor: the reduced budget never drops below one instruction.
	floor := New(Config{Seed: 1, PreemptionRate: 1, PreemptionBudgetFrac: 0.001}).Handle("v")
	if got := floor.PreemptBudget(10); got < 1 {
		t.Errorf("preempted budget = %d, want >= 1", got)
	}
}

func TestGadgetInterruptStopsWithinSequence(t *testing.T) {
	h := New(Config{Seed: 3, GadgetInterruptRate: 1}).Handle("g")
	for i := 0; i < 100; i++ {
		stop, ok := h.GadgetInterrupt(12)
		if !ok {
			t.Fatal("rate-1 interrupt did not fire")
		}
		if stop < 0 || stop >= 12 {
			t.Fatalf("interrupt point %d outside [0, 12)", stop)
		}
	}
	// A single-instruction sequence cannot be "partially" executed.
	if _, ok := h.GadgetInterrupt(1); ok {
		t.Error("interrupted a length-1 sequence")
	}
}

func TestDrawExtremeHasBothSigns(t *testing.T) {
	h := New(Config{Seed: 4, DrawExtremeRate: 1, DrawExtremeMagnitude: 42}).Handle("d")
	pos, neg := 0, 0
	for i := 0; i < 200; i++ {
		v, ok := h.DrawExtreme()
		if !ok {
			t.Fatal("rate-1 extreme did not fire")
		}
		switch v {
		case 42:
			pos++
		case -42:
			neg++
		default:
			t.Fatalf("extreme %v not ±magnitude", v)
		}
	}
	if pos == 0 || neg == 0 {
		t.Errorf("extremes one-sided: %d positive, %d negative", pos, neg)
	}
}

func TestInjectorAggregatesHandleCounts(t *testing.T) {
	in := New(Config{Seed: 5, PMUReadErrorRate: 1, DrawExtremeRate: 1})
	a, b := in.Handle("a"), in.Handle("b")
	pmu0, draw0 := mInjected[KindPMURead].Value(), mInjected[KindDrawExtreme].Value()
	for i := 0; i < 10; i++ {
		a.PMUReadError()
		b.DrawExtreme()
	}
	pmu, draw := mInjected[KindPMURead].Value()-pmu0, mInjected[KindDrawExtreme].Value()-draw0
	if pmu != 10 || draw != 10 {
		t.Errorf("per-kind fault_injected_total deltas = %v/%v, want 10/10", pmu, draw)
	}
	if a.Total() != 10 || b.Total() != 10 || in.Total() != 20 {
		t.Errorf("totals root/a/b = %d/%d/%d, want 20/10/10", in.Total(), a.Total(), b.Total())
	}
}

func TestPresets(t *testing.T) {
	if cfg, err := Preset(PresetOff, 1); err != nil || cfg.Enabled() {
		t.Errorf("off preset = %+v, %v", cfg, err)
	}
	light, err := Preset(PresetLight, 1)
	if err != nil || !light.Enabled() {
		t.Fatalf("light preset = %+v, %v", light, err)
	}
	hv, err := Preset(PresetHeavy, 1)
	if err != nil || !hv.Enabled() {
		t.Fatalf("heavy preset = %+v, %v", hv, err)
	}
	if hv.PMUReadErrorRate <= light.PMUReadErrorRate {
		t.Error("heavy preset not heavier than light")
	}
	if _, err := Preset("bogus", 1); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestKindNamesStable(t *testing.T) {
	want := map[Kind]string{
		KindPMURead:           "pmu-read",
		KindCounterSaturation: "counter-saturation",
		KindPreemption:        "vcpu-preemption",
		KindGadgetInterrupt:   "gadget-interrupt",
		KindDrawExtreme:       "draw-extreme",
	}
	if int(numKinds) != len(want) {
		t.Fatalf("%d kinds, want %d", numKinds, len(want))
	}
	for k, name := range want {
		if k.String() != name {
			t.Errorf("Kind %d = %q, want %q (metric labels must stay stable)", k, k.String(), name)
		}
	}
}
