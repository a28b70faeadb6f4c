// Package proptest is a property-based harness that drives seeded fault
// schedules through full Aegis Protect/ProtectMulti deployments and
// extracts comparable artifacts. The properties the tests assert:
//
//   - no schedule panics the stack;
//   - per-tick injection stays within the DP clipped support [0, B_u];
//   - identical (seed, schedule, parallelism) triples produce
//     byte-identical artifacts;
//   - the degradation funnel reconciles (ticks == injected + zero-draw +
//     no-injection + degraded);
//   - degradation is monotone: a deployment that saw faults on its own
//     substrate never reports full protection, and a healthy deployment
//     always does unless a d* plan's own clip streak forced the
//     d*→Laplace fallback (the one degradation no substrate fault causes).
//
// The single- and multi-event deployments are the same obfuscator with one
// and N plans, so both run through the same checks.
package proptest

import (
	"fmt"

	aegis "github.com/repro/aegis"
	"github.com/repro/aegis/internal/faultinject"
	"github.com/repro/aegis/internal/obfuscator"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/sev"
	"github.com/repro/aegis/internal/workload"
)

// Schedule is one seeded fault scenario.
type Schedule struct {
	// Seed drives both the pipeline and the fault streams.
	Seed uint64
	// Preset names the fault intensity: faultinject.PresetOff/Light/Heavy.
	Preset string
	// Ticks is the online run length.
	Ticks int
	// Parallelism is the offline worker-pool width (affects wall-clock
	// only; artifacts must be identical at any value).
	Parallelism int
}

// String identifies the schedule in test output.
func (s Schedule) String() string {
	return fmt.Sprintf("seed=%d preset=%s ticks=%d par=%d", s.Seed, s.Preset, s.Ticks, s.Parallelism)
}

// Schedules returns n deterministic schedules cycling through the fault
// presets with varied seeds and run lengths.
func Schedules(n int, baseSeed uint64) []Schedule {
	presets := []string{faultinject.PresetOff, faultinject.PresetLight, faultinject.PresetHeavy}
	r := rng.New(baseSeed).Split("proptest-schedules")
	out := make([]Schedule, n)
	for i := range out {
		out[i] = Schedule{
			Seed:        baseSeed + uint64(i)*7919,
			Preset:      presets[i%len(presets)],
			Ticks:       60 + r.Intn(90),
			Parallelism: 1,
		}
	}
	return out
}

// Deployment is the comparable outcome of one deployed obfuscator.
type Deployment struct {
	Report       obfuscator.ProtectionReport
	InjectedReps int64
	// Plans holds each plan's status in plan order.
	Plans []obfuscator.PlanStatus
}

// deployment snapshots a deployed obfuscator.
func deployment(o *obfuscator.Obfuscator) (Deployment, error) {
	d := Deployment{Report: o.Report(), InjectedReps: o.InjectedReps()}
	for i := 0; i < o.Plans(); i++ {
		st, err := o.PlanStatus(i)
		if err != nil {
			return d, err
		}
		d.Plans = append(d.Plans, st)
	}
	return d, nil
}

// Artifacts is the comparable outcome of one schedule run. All fields are
// deterministic functions of (seed, schedule, parallelism).
type Artifacts struct {
	// Single is the single-event d* deployment, Multi the multi-event
	// reinforcement (one d* plan per protected event).
	Single, Multi Deployment
	// World-level fault totals (preemption + gadget interrupts).
	WorldFaults uint64
}

// Fingerprint renders every artifact field into a byte-comparable string
// (floats print in their shortest exact form).
func (a Artifacts) Fingerprint() string { return fmt.Sprintf("%+v", a) }

// Harness owns the expensive shared state: one fuzzed gadget set reused
// across schedules (the offline pipeline's fault determinism is covered by
// its own tests; here the schedules exercise the online deployments).
type Harness struct {
	gs *aegis.GadgetSet
}

// EventNames are the protected events of the harness deployments.
var EventNames = []string{"RETIRED_UOPS", "LS_DISPATCH"}

// NewHarness fuzzes the shared gadget set on a healthy substrate.
func NewHarness(seed uint64) (*Harness, error) {
	fw, err := aegis.New(aegis.Config{Seed: seed, FuzzCandidates: 150})
	if err != nil {
		return nil, err
	}
	gs, err := fw.Fuzz(EventNames)
	if err != nil {
		return nil, err
	}
	return &Harness{gs: gs}, nil
}

// GadgetSet returns the shared gadget set.
func (h *Harness) GadgetSet() *aegis.GadgetSet { return h.gs }

// Run executes one schedule: a framework configured with the schedule's
// fault preset deploys a d* obfuscator and a multi-event reinforcement
// into a faulted SEV world alongside a workload, runs Ticks ticks and
// collects the artifacts. Panics anywhere in the stack are converted into
// errors so the caller can assert the no-panic property.
func (h *Harness) Run(s Schedule) (a Artifacts, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("schedule %v panicked: %v", s, r)
		}
	}()
	faults, err := faultinject.Preset(s.Preset, s.Seed)
	if err != nil {
		return a, err
	}
	fw, err := aegis.New(aegis.Config{
		Seed:        s.Seed,
		Parallelism: s.Parallelism,
		Faults:      faults,
	})
	if err != nil {
		return a, err
	}

	runner := workload.NewRunner("browser", workload.DefaultLibrary(1), rng.New(s.Seed).Split("proptest-runner"))
	runner.Enqueue(workload.WebsiteJob("google.com", rng.New(s.Seed).Split("proptest-load")))
	g, err := sev.NewGuest(sev.GuestConfig{
		World: sev.DefaultConfig(s.Seed), VM: sev.VMConfig{VCPUs: 2, SEV: true},
		Faults: fw.FaultInjector(), App: runner,
	})
	if err != nil {
		return a, err
	}

	obf, err := fw.Protect(g.VM, 0, h.gs, aegis.MechanismDStar, 1.0)
	if err != nil {
		return a, err
	}
	multi, err := fw.ProtectMulti(g.VM, 1, h.gs, 1.0)
	if err != nil {
		return a, err
	}

	g.World.Run(s.Ticks)

	if a.Single, err = deployment(obf); err != nil {
		return a, err
	}
	if a.Multi, err = deployment(multi.Multi); err != nil {
		return a, err
	}
	if in := fw.FaultInjector(); in != nil {
		a.WorldFaults = in.Total()
	}
	return a, nil
}

// Check asserts every schedule-independent invariant on one run's
// artifacts and returns the first violation.
func Check(s Schedule, a Artifacts) error {
	if err := checkDeployment(s, "single", a.Single); err != nil {
		return err
	}
	if err := checkDeployment(s, "multi", a.Multi); err != nil {
		return err
	}
	if s.Preset == faultinject.PresetOff && a.WorldFaults != 0 {
		return fmt.Errorf("%v: healthy schedule recorded %d world faults", s, a.WorldFaults)
	}
	return nil
}

// checkDeployment asserts the invariants of one deployed obfuscator.
func checkDeployment(s Schedule, name string, d Deployment) error {
	r := d.Report
	plans := int64(len(d.Plans))
	if plans == 0 {
		return fmt.Errorf("%v: %s deployment has no plans", s, name)
	}
	// The obfuscator takes turns going first with the workload on its
	// vCPU: a tick whose budget dies before its turn never reaches it, so
	// it runs at most — not exactly — the world's tick count. When it
	// runs, every plan does, so the funnel counts whole ticks of plans.
	if r.Ticks <= 0 || r.Ticks > plans*int64(s.Ticks) || r.Ticks%plans != 0 {
		return fmt.Errorf("%v: %s obfuscator ran %d plan-ticks, want a multiple of %d in 1..%d",
			s, name, r.Ticks, plans, plans*int64(s.Ticks))
	}
	if got := r.InjectedTicks + r.ZeroDrawTicks + r.NoInjectionTicks + r.DegradedTicks; got != r.Ticks {
		return fmt.Errorf("%v: %s funnel does not reconcile: %d+%d+%d+%d != %d",
			s, name, r.InjectedTicks, r.ZeroDrawTicks, r.NoInjectionTicks, r.DegradedTicks, r.Ticks)
	}
	// DP clipped support: no plan can inject more than its ticks × (B_u
	// plus one rep of rounding slack).
	ticks := float64(r.Ticks / plans)
	for i, p := range d.Plans {
		if maxTotal := ticks * (p.ClipBound + p.PerExec); p.InjectedCounts > maxTotal {
			return fmt.Errorf("%v: %s plan %d injected %v counts, exceeding clipped support %v",
				s, name, i, p.InjectedCounts, maxTotal)
		}
		if p.InjectedCounts < 0 {
			return fmt.Errorf("%v: %s plan %d injected negative counts %v", s, name, i, p.InjectedCounts)
		}
	}
	if d.InjectedReps < 0 {
		return fmt.Errorf("%v: %s injected negative reps %d", s, name, d.InjectedReps)
	}
	// Monotone degradation: faults on the obfuscator's own substrate (or
	// any degraded tick) must void the full-protection claim. A healthy
	// preset must keep it, unless the mechanism itself fell back: a d*
	// recursion committing near-bound noise can clip high for long enough
	// on a healthy substrate too. Each fallback degrades one tick, so
	// without one this demands Full().
	if (r.FaultsSeen > 0 || r.DegradedTicks > 0 || r.MechanismFallbacks > 0) && r.Full() {
		return fmt.Errorf("%v: %s full protection reported despite faults: %+v", s, name, r)
	}
	if s.Preset == faultinject.PresetOff &&
		(r.FaultsSeen != 0 || r.DegradedTicks != r.DegradedByReason[obfuscator.ReasonDStarClipFallback]) {
		return fmt.Errorf("%v: healthy schedule's %s deployment not reported full: %+v", s, name, r)
	}
	return nil
}
