package obfuscator

import (
	"testing"

	"github.com/repro/aegis/internal/faultinject"
	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/sev"
)

func TestNewMultiValidation(t *testing.T) {
	seg, ref := coverSegment(t)
	lap, err := NewLaplaceMechanism(1, 100, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	healthy := faultinject.Config{}
	if _, err := NewMulti(nil, 1, healthy); err == nil {
		t.Error("empty plans accepted")
	}
	if _, err := NewMulti([]Plan{{Segment: seg, Event: ref}}, 1, healthy); err == nil {
		t.Error("nil mechanism accepted")
	}
	if _, err := NewMulti([]Plan{{Mechanism: lap, Event: ref}}, 1, healthy); err == nil {
		t.Error("empty segment accepted")
	}
	if _, err := NewMulti([]Plan{{Mechanism: lap, Segment: seg}}, 1, healthy); err == nil {
		t.Error("nil event accepted")
	}
}

// runMulti drives a multi-plan obfuscator alone on one SEV vCPU.
func runMulti(t *testing.T, plans []Plan, seed uint64, faults faultinject.Config, ticks int) *Obfuscator {
	t.Helper()
	m, err := NewMulti(plans, seed, faults)
	if err != nil {
		t.Fatal(err)
	}
	w := sev.NewWorld(sev.DefaultConfig(23))
	vm, err := w.LaunchVM(sev.VMConfig{VCPUs: 1, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.AddProcess(0, m); err != nil {
		t.Fatal(err)
	}
	w.Run(ticks)
	return m
}

// reconciles reports whether every (plan, tick) pair landed in exactly one
// funnel bucket.
func reconciles(r ProtectionReport) bool {
	return r.InjectedTicks+r.ZeroDrawTicks+r.NoInjectionTicks+r.DegradedTicks == r.Ticks
}

func TestMultiPlanProtectsTwoEvents(t *testing.T) {
	seg, _ := coverSegment(t)
	cat := hpc.NewAMDEpyc7252Catalog(1)
	mkDStar := func(seed uint64) Mechanism {
		m, err := NewDStarMechanism(1, 300, rng.New(seed).Split("dstar"))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	multi := runMulti(t, []Plan{
		{Mechanism: mkDStar(1), Segment: seg, Event: cat.MustByName("RETIRED_UOPS"), ClipBound: 5000},
		{Mechanism: mkDStar(2), Segment: seg, Event: cat.MustByName("LS_DISPATCH"), ClipBound: 5000},
	}, 30, faultinject.Config{}, 80)
	if multi.Plans() != 2 {
		t.Fatalf("plans = %d", multi.Plans())
	}
	if multi.InjectedReps() == 0 {
		t.Fatal("no injection over 80 ticks")
	}
	for i := 0; i < 2; i++ {
		st, err := multi.PlanStatus(i)
		if err != nil {
			t.Fatal(err)
		}
		if st.InjectedCounts <= 0 {
			t.Errorf("plan %d injected no counts", i)
		}
	}
	if _, err := multi.PlanStatus(5); err == nil {
		t.Error("out-of-range plan accepted")
	}
	r := multi.Report()
	if r.Ticks != 2*80 || !reconciles(r) || !r.Full() {
		t.Errorf("healthy two-plan funnel: %+v, want 160 reconciled full plan-ticks", r)
	}
}

// TestMultiDStarPlansFallBackIndependently drives two d* plans through a
// draw-extreme storm: every draw is replaced by ±1e9, so each plan's clip
// streak eventually reaches the fallback threshold and that plan — on its
// own schedule — swaps to Laplace with a typed degradation.
func TestMultiDStarPlansFallBackIndependently(t *testing.T) {
	seg, ref := coverSegment(t)
	cat := hpc.NewAMDEpyc7252Catalog(1)
	var plans []Plan
	for i, ev := range []*hpc.Event{ref, cat.MustByName("LS_DISPATCH")} {
		d, err := NewDStarMechanism(1, 100, rng.New(60).SplitN("dstar", i))
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, Plan{Mechanism: d, Segment: seg, Event: ev, ClipBound: 1000})
	}
	const ticks = 3000
	multi := runMulti(t, plans, 61,
		faultinject.Config{Seed: 62, DrawExtremeRate: 1, DrawExtremeMagnitude: 1e9}, ticks)

	r := multi.Report()
	if r.Ticks != 2*ticks || !reconciles(r) {
		t.Fatalf("funnel does not reconcile over %d plan-ticks: %+v", 2*ticks, r)
	}
	if r.MechanismFallbacks != 2 || r.DegradedByReason[ReasonDStarClipFallback] != 2 {
		t.Errorf("want one dstar-clip-fallback per plan, got %d fallbacks, %v",
			r.MechanismFallbacks, r.DegradedByReason)
	}
	for i := 0; i < 2; i++ {
		st, err := multi.PlanStatus(i)
		if err != nil {
			t.Fatal(err)
		}
		if st.Mechanism != "laplace" {
			t.Errorf("plan %d mechanism after storm = %q, want laplace", i, st.Mechanism)
		}
		if st.InjectedCounts > ticks*(st.ClipBound+st.PerExec) {
			t.Errorf("plan %d injected %v counts, beyond the clipped support", i, st.InjectedCounts)
		}
	}
	if r.Full() {
		t.Error("fallback run reported as full protection")
	}
}
