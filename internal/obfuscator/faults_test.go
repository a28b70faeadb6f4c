package obfuscator

import (
	"testing"

	"github.com/repro/aegis/internal/faultinject"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/sev"
)

// fixedMech always draws the same noise value; it lets tests steer the
// obfuscator into specific tick outcomes.
type fixedMech struct{ v float64 }

func (m *fixedMech) Name() string           { return "fixed" }
func (m *fixedMech) NeedsObservation() bool { return false }
func (m *fixedMech) Noise(int64, float64) float64 {
	return m.v
}

// runObf drives the obfuscator alone on one SEV vCPU for n ticks.
func runObf(t *testing.T, obf *Obfuscator, n int) {
	t.Helper()
	w := sev.NewWorld(sev.DefaultConfig(21))
	vm, err := w.LaunchVM(sev.VMConfig{VCPUs: 1, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.AddProcess(0, obf); err != nil {
		t.Fatal(err)
	}
	w.Run(n)
}

func baseConfig(t *testing.T, mech Mechanism, seed uint64) Config {
	t.Helper()
	seg, ref := coverSegment(t)
	return Config{
		Mechanism: mech,
		Segment:   seg,
		RefEvent:  ref,
		ClipBound: 2000,
		Seed:      seed,
	}
}

func TestFunnelReconcilesOnHealthySubstrate(t *testing.T) {
	lap, err := NewLaplaceMechanism(0.5, 200, rng.New(30))
	if err != nil {
		t.Fatal(err)
	}
	obf, err := New(baseConfig(t, lap, 30))
	if err != nil {
		t.Fatal(err)
	}
	runObf(t, obf, 200)
	r := obf.Report()
	if r.Ticks != 200 {
		t.Fatalf("ticks = %d, want 200", r.Ticks)
	}
	if got := r.InjectedTicks + r.ZeroDrawTicks + r.NoInjectionTicks + r.DegradedTicks; got != r.Ticks {
		t.Errorf("funnel does not reconcile: %d+%d+%d+%d != %d",
			r.InjectedTicks, r.ZeroDrawTicks, r.NoInjectionTicks, r.DegradedTicks, r.Ticks)
	}
	if r.DegradedTicks != 0 {
		t.Errorf("healthy run degraded %d ticks: %v", r.DegradedTicks, r.DegradedByReason)
	}
	if !r.Full() {
		t.Errorf("healthy run not reported as full protection: %+v", r)
	}
}

func TestZeroDrawDistinguishedFromNoInjection(t *testing.T) {
	// A zero/negative clipped draw (mechanism chose no noise) and a
	// positive draw too small to fire one gadget rep must land in
	// different outcome buckets even though both inject nothing.
	fm := &fixedMech{v: -5}
	obf, err := New(baseConfig(t, fm, 31))
	if err != nil {
		t.Fatal(err)
	}
	runObf(t, obf, 10)
	r := obf.Report()
	if r.ZeroDrawTicks != 10 {
		t.Errorf("negative draws: zero-draw ticks = %d, want 10 (report %+v)", r.ZeroDrawTicks, r)
	}
	last := obf.LastTick()
	if last.Outcome != TickZeroDraw {
		t.Errorf("negative draw outcome = %v, want zero-draw", last.Outcome)
	}
	if !last.ClippedLow || last.RawDraw != -5 {
		t.Errorf("negative draw not recorded as low clip: %+v", last)
	}
	if last.Requested != 0 || last.Injected != 0 {
		t.Errorf("zero-draw tick executed gadgets: %+v", last)
	}

	// Now a positive draw worth less than half a segment execution.
	fm2 := &fixedMech{}
	obf2, err := New(baseConfig(t, fm2, 32))
	if err != nil {
		t.Fatal(err)
	}
	fm2.v = obf2.plans[0].perExec * 0.4
	runObf(t, obf2, 10)
	r2 := obf2.Report()
	if r2.NoInjectionTicks != 10 {
		t.Errorf("tiny draws: no-injection ticks = %d, want 10 (report %+v)", r2.NoInjectionTicks, r2)
	}
	last2 := obf2.LastTick()
	if last2.Outcome != TickNoInjection {
		t.Errorf("tiny draw outcome = %v, want no-injection", last2.Outcome)
	}
	if last2.ClippedLow || last2.RawDraw <= 0 {
		t.Errorf("tiny positive draw misrecorded: %+v", last2)
	}
	if r2.ZeroDrawTicks != 0 {
		t.Errorf("tiny positive draws counted as zero draws: %+v", r2)
	}
}

func TestPMUReadFaultsDegradeAndAreCounted(t *testing.T) {
	// Every RDPMC fails: observation-based ticks retry, then skip and
	// count. The obfuscator must not report full protection.
	dstar, err := NewDStarMechanism(1, 100, rng.New(33).Split("dstar"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t, dstar, 33)
	cfg.Faults = faultinject.Config{Seed: 33, PMUReadErrorRate: 1}
	obf, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runObf(t, obf, 50)
	r := obf.Report()
	if r.DegradedTicks != 50 {
		t.Fatalf("degraded ticks = %d, want 50 (report %+v)", r.DegradedTicks, r)
	}
	if r.DegradedByReason[ReasonPMURead] != 50 {
		t.Errorf("pmu-read reason count = %d, want 50", r.DegradedByReason[ReasonPMURead])
	}
	if r.Retries == 0 {
		t.Error("no retries recorded before giving up")
	}
	if r.FaultsSeen == 0 {
		t.Error("no faults recorded on the obfuscator handles")
	}
	if r.Full() {
		t.Error("fully faulted run reported as full protection")
	}
	if obf.InjectedReps() != 0 {
		t.Errorf("degraded ticks still injected %d reps", obf.InjectedReps())
	}
}

func TestCounterSaturationTriggersRearm(t *testing.T) {
	// The reference counter latches at its overflow cap every tick; the
	// obfuscator re-programs it, counts the re-arm, and marks the tick
	// degraded instead of feeding the cap into the mechanism.
	dstar, err := NewDStarMechanism(1, 100, rng.New(34).Split("dstar"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t, dstar, 34)
	cfg.Faults = faultinject.Config{Seed: 34, CounterSaturationRate: 1, SaturationCap: 5e5}
	obf, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runObf(t, obf, 20)
	r := obf.Report()
	if r.CounterRearms != 20 {
		t.Errorf("counter rearms = %d, want 20", r.CounterRearms)
	}
	if r.DegradedByReason[ReasonCounterRearm] != 20 {
		t.Errorf("counter-rearm degradations = %d, want 20", r.DegradedByReason[ReasonCounterRearm])
	}
	// The latched cap (5e5) must never reach the mechanism as an
	// observation: committed noise stays within the clip bound.
	if obf.InjectedCounts() > float64(r.Ticks)*cfg.ClipBound {
		t.Errorf("injected counts %v exceed per-tick clip", obf.InjectedCounts())
	}
	if r.Full() {
		t.Error("rearm-heavy run reported as full protection")
	}
}

func TestDrawExtremesClipAndStillInject(t *testing.T) {
	// Draw-extreme faults replace the mechanism draw with ±1e9; positive
	// ones clip to the bound and inject, negative ones clip to zero. No
	// tick may inject more than the clipped support allows.
	lap, err := NewLaplaceMechanism(0.5, 200, rng.New(35))
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t, lap, 35)
	cfg.Faults = faultinject.Config{Seed: 35, DrawExtremeRate: 1, DrawExtremeMagnitude: 1e9}
	obf, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runObf(t, obf, 60)
	r := obf.Report()
	if r.InjectedTicks == 0 || r.ZeroDrawTicks == 0 {
		t.Fatalf("draw extremes should split into injected and zero-draw ticks: %+v", r)
	}
	if r.InjectedTicks+r.ZeroDrawTicks+r.NoInjectionTicks+r.DegradedTicks != r.Ticks {
		t.Errorf("funnel does not reconcile under draw extremes: %+v", r)
	}
	maxPerTick := cfg.ClipBound + obf.plans[0].perExec // rounding slack
	if obf.InjectedCounts() > float64(r.Ticks)*maxPerTick {
		t.Errorf("injected %v counts over %d ticks exceeds clipped support",
			obf.InjectedCounts(), r.Ticks)
	}
	if r.FaultsSeen == 0 || r.Full() {
		t.Errorf("draw-extreme run must not report full protection: %+v", r)
	}
	last := obf.LastTick()
	if !last.ClippedHigh && !last.ClippedLow {
		t.Errorf("extreme draw not clipped: %+v", last)
	}
}

func TestDStarFallsBackToLaplaceUnderClipStorm(t *testing.T) {
	// Persistent positive extremes clip every draw; after
	// fallbackAfterClips consecutive clips the d* recursion is abandoned
	// for a memoryless Laplace with the same (ε, Δ).
	dstar, err := NewDStarMechanism(1, 100, rng.New(36).Split("dstar"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t, dstar, 36)
	cfg.Faults = faultinject.Config{Seed: 36, DrawExtremeRate: 1, DrawExtremeMagnitude: 1e9}
	obf, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if obf.plans[0].mech != Mechanism(dstar) {
		t.Fatal("active mechanism before faults should be d*")
	}
	runObf(t, obf, 200)
	r := obf.Report()
	if r.MechanismFallbacks != 1 {
		t.Fatalf("mechanism fallbacks = %d, want 1 (report %+v)", r.MechanismFallbacks, r)
	}
	if r.DegradedByReason[ReasonDStarClipFallback] != 1 {
		t.Errorf("dstar-clip-fallback degradations = %d, want 1", r.DegradedByReason[ReasonDStarClipFallback])
	}
	if got := obf.plans[0].mech.Name(); got != "laplace" {
		t.Errorf("active mechanism after clip storm = %q, want laplace", got)
	}
	if r.Full() {
		t.Error("fallback run reported as full protection")
	}
}

func TestGadgetInterruptRetriesWithBackoff(t *testing.T) {
	// Mid-gadget interrupts leave budget unspent; the obfuscator retries
	// with a halving backoff and records the retries. Under a moderate
	// rate the tick usually still injects.
	lap, err := NewLaplaceMechanism(0.5, 400, rng.New(37))
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t, lap, 37)
	cfg.Faults = faultinject.Config{Seed: 37, GadgetInterruptRate: 0.3}
	obf, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := sev.NewWorld(sev.DefaultConfig(22))
	w.SetFaults(faultinject.New(faultinject.Config{Seed: 22, GadgetInterruptRate: 0.3}))
	vm, err := w.LaunchVM(sev.VMConfig{VCPUs: 1, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.AddProcess(0, obf); err != nil {
		t.Fatal(err)
	}
	w.Run(200)
	r := obf.Report()
	if r.Retries == 0 {
		t.Errorf("no retries recorded under gadget interrupts: %+v", r)
	}
	if r.InjectedTicks == 0 {
		t.Errorf("interrupt storm killed all injection: %+v", r)
	}
	if r.Full() {
		t.Error("interrupted run reported as full protection")
	}
}

func TestObfuscatorDeterministicUnderFaults(t *testing.T) {
	run := func() (float64, ProtectionReport) {
		dstar, err := NewDStarMechanism(1, 100, rng.New(38).Split("dstar"))
		if err != nil {
			t.Fatal(err)
		}
		cfg := baseConfig(t, dstar, 38)
		cfg.Faults, err = faultinject.Preset(faultinject.PresetHeavy, 38)
		if err != nil {
			t.Fatal(err)
		}
		obf, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runObf(t, obf, 150)
		return obf.InjectedCounts(), obf.Report()
	}
	c1, r1 := run()
	c2, r2 := run()
	if c1 != c2 {
		t.Errorf("injected counts differ across identical runs: %v vs %v", c1, c2)
	}
	if r1.DegradedTicks != r2.DegradedTicks || r1.Retries != r2.Retries ||
		r1.FaultsSeen != r2.FaultsSeen {
		t.Errorf("reports differ across identical runs:\n%+v\n%+v", r1, r2)
	}
	if r1.InjectedTicks+r1.ZeroDrawTicks+r1.NoInjectionTicks+r1.DegradedTicks != r1.Ticks {
		t.Errorf("funnel does not reconcile under heavy preset: %+v", r1)
	}
}

func TestMultiPlanDegradesPerPlan(t *testing.T) {
	seg, ref := coverSegment(t)
	mkPlans := func() []Plan {
		d1, err := NewDStarMechanism(1, 100, rng.New(40).Split("d1"))
		if err != nil {
			t.Fatal(err)
		}
		d2, err := NewDStarMechanism(1, 100, rng.New(40).Split("d2"))
		if err != nil {
			t.Fatal(err)
		}
		return []Plan{
			{Mechanism: d1, Segment: seg, Event: ref, ClipBound: 1000},
			{Mechanism: d2, Segment: seg, Event: ref, ClipBound: 1000},
		}
	}

	healthy := runMulti(t, mkPlans(), 40, faultinject.Config{}, 80).Report()
	if !healthy.Full() {
		t.Errorf("healthy multi run degraded: %+v", healthy)
	}

	faulted := runMulti(t, mkPlans(), 40, faultinject.Config{Seed: 41, PMUReadErrorRate: 1}, 80)
	r := faulted.Report()
	if r.Full() {
		t.Error("fully faulted multi run reported full protection")
	}
	if got := r.DegradedByReason[ReasonPMURead]; got != 2*80 {
		t.Errorf("pmu-read degradations = %d, want 160 (both plans, every tick)", got)
	}
	if r.Retries == 0 {
		t.Error("no retries recorded in multi deployment")
	}
	if faulted.InjectedReps() != 0 {
		t.Errorf("faulted multi run injected %d reps", faulted.InjectedReps())
	}

	// Saturation path: latched counters are re-armed, not consumed, and
	// each re-arm degrades its plan's tick.
	sat := runMulti(t, mkPlans(), 40, faultinject.Config{Seed: 42, CounterSaturationRate: 1, SaturationCap: 5e5}, 80).Report()
	if sat.CounterRearms != 2*80 || sat.DegradedByReason[ReasonCounterRearm] != 2*80 {
		t.Errorf("saturated multi run: %d rearms, %v; want 160 re-armed degraded plan-ticks",
			sat.CounterRearms, sat.DegradedByReason)
	}
}

// retiredCounter wraps the obfuscator and sums the instructions its Step
// actually retired on the vCPU.
type retiredCounter struct {
	*Obfuscator
	retired int
}

func (r *retiredCounter) Step(g *sev.GuestExecutor) {
	before := g.Used()
	r.Obfuscator.Step(g)
	r.retired += g.Used() - before
}

func TestInjectedInstructionsCountRetired(t *testing.T) {
	// Under heavy faults and a budget a few segments wide, injection is cut
	// mid-segment by the budget and interrupted mid-segment by VM exits;
	// the instruction counter must still match what retired.
	lap, err := NewLaplaceMechanism(0.5, 400, rng.New(39))
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t, lap, 39)
	cfg.Faults, err = faultinject.Preset(faultinject.PresetHeavy, 39)
	if err != nil {
		t.Fatal(err)
	}
	obf, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wcfg := sev.DefaultConfig(23)
	wcfg.TickBudget = 3*len(cfg.Segment) + 1
	w := sev.NewWorld(wcfg)
	worldFaults, err := faultinject.Preset(faultinject.PresetHeavy, 23)
	if err != nil {
		t.Fatal(err)
	}
	w.SetFaults(faultinject.New(worldFaults))
	vm, err := w.LaunchVM(sev.VMConfig{VCPUs: 1, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	proc := &retiredCounter{Obfuscator: obf}
	if err := vm.AddProcess(0, proc); err != nil {
		t.Fatal(err)
	}
	before := mInjectedInstr.Value()
	w.Run(300)
	if got := mInjectedInstr.Value() - before; got != float64(proc.retired) {
		t.Errorf("obfuscator_injected_instructions_total moved by %v, obfuscator retired %d", got, proc.retired)
	}
	if r := obf.Report(); r.Retries == 0 || obf.SaturationRate() == 0 {
		t.Errorf("run hit neither mid-segment interrupts nor the budget: %+v, saturation %v",
			r, obf.SaturationRate())
	}
}
