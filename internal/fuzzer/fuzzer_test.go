package fuzzer

import (
	"errors"
	"testing"

	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/telemetry"
)

func legalAMD(t *testing.T) []isa.Variant {
	t.Helper()
	return isa.Cleanup(isa.SpecAMDEpyc(1), isa.AMDEpycFeatures()).Legal
}

func smallConfig(seed uint64) Config {
	cfg := DefaultConfig(seed)
	cfg.CandidatesPerEvent = 150
	return cfg
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, DefaultConfig(1)); !errors.Is(err, ErrNoLegalInstructions) {
		t.Errorf("empty legal list error = %v", err)
	}
}

func TestFuzzEventFindsGadgets(t *testing.T) {
	f, err := New(legalAMD(t), smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	cat := hpc.NewAMDEpyc7252Catalog(1)
	ev := cat.MustByName("RETIRED_UOPS")
	findings, n, _, err := f.FuzzEvent(ev)
	if err != nil {
		t.Fatal(err)
	}
	if n.Tried != 150 {
		t.Errorf("tried = %d, want 150", n.Tried)
	}
	// Every instruction retires µops, so no signature is prefiltered
	// off the measuring bench.
	if n.Measured != n.Tried {
		t.Errorf("measured = %d, want all %d tried", n.Measured, n.Tried)
	}
	// Every instruction retires µops, but the λ2 constraint only accepts
	// gadgets whose trigger dominates the reset (e.g. 1-µop reset with a
	// CPUID/DIV trigger), so survivors are a small subset.
	if len(findings) < 2 {
		t.Errorf("found %d gadgets for RETIRED_UOPS, want >= 2", len(findings))
	}
	for _, fd := range findings {
		if fd.MedianDelta < 1 {
			t.Errorf("gadget %s has delta %v < 1", fd.Gadget.Key(), fd.MedianDelta)
		}
	}
}

func TestFuzzEventCacheRefills(t *testing.T) {
	// DATA_CACHE_REFILLS_FROM_SYSTEM requires a flush-like reset and a
	// memory-touching trigger; confirmed gadgets must reflect that
	// mechanism rather than arbitrary pairs. Flush×load pairs are rare in
	// the random search, so this event needs a larger candidate budget.
	cfg := smallConfig(2)
	cfg.CandidatesPerEvent = 4000
	f, err := New(legalAMD(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cat := hpc.NewAMDEpyc7252Catalog(1)
	ev := cat.MustByName("DATA_CACHE_REFILLS_FROM_SYSTEM")
	findings, n, _, err := f.FuzzEvent(ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) == 0 {
		t.Fatal("no gadgets found for refill event")
	}
	// Most pairs have no flush, so their signatures show no refill and
	// they never run on the measuring bench.
	if n.Measured < len(findings) || 2*n.Measured > n.Tried {
		t.Errorf("measured %d of %d tried, want at most half and at least the %d findings",
			n.Measured, n.Tried, len(findings))
	}
	for _, fd := range findings {
		resetFlushes := fd.Gadget.Reset.Class == isa.ClassFlush
		triggerFlushes := fd.Gadget.Trigger.Class == isa.ClassFlush
		if !resetFlushes && !triggerFlushes {
			t.Errorf("gadget %s perturbs refills without any flush", fd.Gadget.Key())
		}
	}
}

func TestRepeatedTriggersRejectsResetOnlyEffect(t *testing.T) {
	// A gadget whose "trigger" is a NOP cannot pass the λ2 constraint for
	// an event moved only by the reset.
	f, err := New(legalAMD(t), smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	cat := hpc.NewAMDEpyc7252Catalog(1)
	ev := cat.MustByName("RETIRED_UOPS")
	var load, nop isa.Variant
	for _, v := range legalAMD(t) {
		if v.Class == isa.ClassLoad && load.Mnemonic == "" {
			load = v
		}
		if v.Class == isa.ClassNop && v.Uops == 1 && nop.Mnemonic == "" {
			nop = v
		}
	}
	b := f.newBench(f.root.Split("test"), nil)
	// Reset = load (retires uops), trigger = nop (also retires, but the
	// cumulative hot path is NOT > λ2 × cold path).
	ops := Gadget{Reset: load, Trigger: nop}.ops()
	ok, err := b.repeatedTriggers(ev, ops[:])
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("reset-dominated gadget passed repeated-trigger confirmation")
	}
}

func TestFuzzCampaign(t *testing.T) {
	f, err := New(legalAMD(t), smallConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	cat := hpc.NewAMDEpyc7252Catalog(1)
	events := []*hpc.Event{
		cat.MustByName("RETIRED_UOPS"),
		cat.MustByName("LS_DISPATCH"),
		cat.MustByName("HW_CACHE_L1D:WRITE"),
		cat.MustByName("RETIRED_MMX_FP_INSTRUCTIONS:SSE_INSTR"),
	}
	res, err := f.Fuzz(events)
	if err != nil {
		t.Fatal(err)
	}
	if res.CandidatesTried != 4*150 {
		t.Errorf("tried = %d", res.CandidatesTried)
	}
	for _, e := range events {
		if len(res.Representatives[e.Name]) == 0 {
			t.Errorf("no representative gadgets for %s", e.Name)
		}
		best, ok := res.Best[e.Name]
		if !ok {
			t.Errorf("no best gadget for %s", e.Name)
			continue
		}
		// Representatives are deduplicated by cluster and sorted by
		// delta; the best gadget's delta is the maximum.
		reps := res.Representatives[e.Name]
		for i := 1; i < len(reps); i++ {
			if reps[i].MedianDelta > reps[i-1].MedianDelta {
				t.Errorf("%s representatives not sorted", e.Name)
			}
		}
		if len(reps) > 0 && reps[0].MedianDelta > best.MedianDelta {
			t.Errorf("%s best delta below representative", e.Name)
		}
	}
	if res.Timing.GenerateExec <= 0 {
		t.Error("no generation timing recorded")
	}
}

func TestFilterClusterDeduplication(t *testing.T) {
	ev := &hpc.Event{Name: "X"}
	mk := func(resetExt, trigExt isa.Extension, delta float64) Finding {
		return Finding{
			Gadget: Gadget{
				Reset:   isa.Variant{Mnemonic: "A", Extension: resetExt, Category: isa.CatCache},
				Trigger: isa.Variant{Mnemonic: "B", Extension: trigExt, Category: isa.CatMemory},
			},
			Event:       ev,
			MedianDelta: delta,
		}
	}
	findings := []Finding{
		mk(isa.ExtBase, isa.ExtSSE, 5),
		mk(isa.ExtBase, isa.ExtSSE, 9), // same cluster, stronger
		mk(isa.ExtCLFSH, isa.ExtSSE, 3),
	}
	reps, best := filter(findings)
	if len(reps) != 2 {
		t.Fatalf("representatives = %d, want 2 clusters", len(reps))
	}
	if reps[0].MedianDelta != 9 {
		t.Errorf("strongest representative delta = %v", reps[0].MedianDelta)
	}
	if best.MedianDelta != 9 {
		t.Errorf("best delta = %v", best.MedianDelta)
	}
}

func TestMinimalCover(t *testing.T) {
	f, err := New(legalAMD(t), smallConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	cat := hpc.NewAMDEpyc7252Catalog(1)
	events := []*hpc.Event{
		cat.MustByName("RETIRED_UOPS"),
		cat.MustByName("LS_DISPATCH"),
		cat.MustByName("MAB_ALLOCATION_BY_PIPE"),
		cat.MustByName("DATA_CACHE_REFILLS_FROM_SYSTEM"),
		cat.MustByName("HW_CACHE_L1D:WRITE"),
		cat.MustByName("RETIRED_INSTRUCTIONS"),
	}
	res, err := f.Fuzz(events)
	if err != nil {
		t.Fatal(err)
	}
	cover, err := f.MinimalCover(res, events)
	if err != nil {
		t.Fatal(err)
	}
	if len(cover) == 0 {
		t.Fatal("empty cover")
	}
	// The cover must be far smaller than the event count would suggest
	// (the paper covers 137 events with 43 gadgets; here a handful of
	// gadgets cover all 6 events).
	if len(cover) > len(events) {
		t.Errorf("cover size %d exceeds event count %d", len(cover), len(events))
	}
	covered := map[string]bool{}
	for _, c := range cover {
		for _, name := range c.Covers {
			if covered[name] {
				t.Errorf("event %s covered twice in greedy accounting", name)
			}
			covered[name] = true
		}
	}
	// Events with confirmed gadgets must be covered.
	for _, e := range events {
		if len(res.Representatives[e.Name]) > 0 && !covered[e.Name] {
			t.Errorf("event %s has gadgets but is uncovered", e.Name)
		}
	}
	seg := StackSegment(cover)
	if len(seg) != 2*len(cover) {
		t.Errorf("stacked segment length = %d, want %d", len(seg), 2*len(cover))
	}
}

func TestFuzzErrors(t *testing.T) {
	f, err := New(legalAMD(t), smallConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Fuzz(nil); !errors.Is(err, ErrNoTargetEvents) {
		t.Errorf("empty events error = %v", err)
	}
	if _, _, _, err := f.FuzzEvent(nil); !errors.Is(err, ErrNoTargetEvents) {
		t.Errorf("nil event error = %v", err)
	}
	if _, err := f.MinimalCover(nil, nil); !errors.Is(err, ErrNoTargetEvents) {
		t.Errorf("nil cover error = %v", err)
	}
}

func TestFuzzDeterministic(t *testing.T) {
	cat := hpc.NewAMDEpyc7252Catalog(1)
	ev := cat.MustByName("LS_DISPATCH")
	run := func() int {
		f, err := New(legalAMD(t), smallConfig(7))
		if err != nil {
			t.Fatal(err)
		}
		findings, _, _, err := f.FuzzEvent(ev)
		if err != nil {
			t.Fatal(err)
		}
		return len(findings)
	}
	if run() != run() {
		t.Error("identical campaigns found different gadget counts")
	}
}

// TestFuzzEventTimingWithoutTelemetry: Table III's phase times are
// results, not telemetry, so FuzzEvent measures them with the default
// registry disabled too, while its telemetry timer stays inert.
func TestFuzzEventTimingWithoutTelemetry(t *testing.T) {
	reg := telemetry.Default()
	was := reg.Enabled()
	reg.SetEnabled(false)
	t.Cleanup(func() { reg.SetEnabled(was) })
	f, err := New(legalAMD(t), smallConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	observed := hEventSeconds.Count()
	_, _, tm, err := f.FuzzEvent(hpc.NewAMDEpyc7252Catalog(1).MustByName("RETIRED_UOPS"))
	if err != nil {
		t.Fatal(err)
	}
	if tm.GenerateExec <= 0 || tm.Confirmation <= 0 {
		t.Errorf("timing = %+v, want GenerateExec and Confirmation > 0", tm)
	}
	if n := hEventSeconds.Count() - observed; n != 0 {
		t.Errorf("disabled registry: fuzzer_event_seconds gained %d observations", n)
	}
}

// TestFuzzTimingMeasuresPhases: the Table III split comes from measured
// phases, so a campaign that skips confirmation reports no confirmation
// time, and one that confirms reports some.
func TestFuzzTimingMeasuresPhases(t *testing.T) {
	cat := hpc.NewAMDEpyc7252Catalog(1)
	events := []*hpc.Event{cat.MustByName("RETIRED_UOPS"), cat.MustByName("LS_DISPATCH")}
	for _, disable := range []bool{true, false} {
		cfg := smallConfig(5)
		cfg.DisableConfirmation = disable
		f, err := New(legalAMD(t), cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Fuzz(events)
		if err != nil {
			t.Fatal(err)
		}
		tm := res.Timing
		if tm.GenerateExec <= 0 {
			t.Errorf("DisableConfirmation=%t: GenerateExec = %v, want > 0", disable, tm.GenerateExec)
		}
		if disable && tm.Confirmation != 0 {
			t.Errorf("DisableConfirmation: Confirmation = %v, want 0", tm.Confirmation)
		}
		if !disable && tm.Confirmation <= 0 {
			t.Errorf("confirming campaign: Confirmation = %v, want > 0", tm.Confirmation)
		}
	}
}
