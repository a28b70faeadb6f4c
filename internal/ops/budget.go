package ops

import (
	"fmt"
	"sync"

	"github.com/repro/aegis/internal/telemetry"
)

// DefaultOverheadTarget is the paper's injection overhead ceiling: the
// defense's gadget injection must stay under 2% of the protected
// workload's capacity (paper §IX-C evaluates ~1.26%).
const DefaultOverheadTarget = 0.02

// BudgetStatus is a point-in-time overhead verdict.
type BudgetStatus struct {
	// Injected and Capacity are the cumulative injected work and the
	// cumulative capacity it is measured against, in the same unit
	// (instructions when fed from telemetry, seconds when fed from
	// wall-clock accounting).
	Injected float64 `json:"injected"`
	Capacity float64 `json:"capacity"`
	// Fraction is Injected/Capacity (0 while Capacity is 0).
	Fraction float64 `json:"fraction"`
	// Target is the ceiling Fraction is held to.
	Target float64 `json:"target"`
	// Breached reports Fraction > Target.
	Breached bool `json:"breached"`
}

// Verdict renders the one-line human verdict printed by aegis-bench.
func (s BudgetStatus) Verdict() string {
	v := "within budget"
	if s.Breached {
		v = "BREACHED"
	}
	return fmt.Sprintf("overhead budget: %.2f%% of capacity injected (target %.2f%%) — %s",
		s.Fraction*100, s.Target*100, v)
}

// OverheadBudget continuously compares injected work against capacity and
// flips its health probe to degraded when the fraction crosses the
// target. Feed it by accumulation (Add), or build it with
// NewTelemetryBudget, which reads cumulative totals on every Status call.
type OverheadBudget struct {
	mu       sync.Mutex
	target   float64
	injected float64
	capacity float64
	source   func() (injected, capacity float64) // nil: Add-fed
}

// NewOverheadBudget builds a tracker; target <= 0 means
// DefaultOverheadTarget.
func NewOverheadBudget(target float64) *OverheadBudget {
	if target <= 0 {
		target = DefaultOverheadTarget
	}
	return &OverheadBudget{target: target}
}

// Add accumulates injected work and capacity deltas.
func (b *OverheadBudget) Add(injected, capacity float64) {
	b.mu.Lock()
	b.injected += injected
	b.capacity += capacity
	b.mu.Unlock()
}

// Status returns the current verdict.
func (b *OverheadBudget) Status() BudgetStatus {
	b.mu.Lock()
	injected, capacity, src := b.injected, b.capacity, b.source
	target := b.target
	b.mu.Unlock()
	if src != nil {
		injected, capacity = src()
	}
	st := BudgetStatus{Injected: injected, Capacity: capacity, Target: target}
	if capacity > 0 {
		st.Fraction = injected / capacity
	}
	st.Breached = st.Fraction > target
	return st
}

// Probe returns the tracker as a health probe: degraded while breached.
func (b *OverheadBudget) Probe() Probe {
	return Probe{Name: "overhead-budget", Check: func() ProbeResult {
		st := b.Status()
		detail := fmt.Sprintf("%.2f%% of %.2f%% target", st.Fraction*100, st.Target*100)
		if st.Breached {
			return Degraded(detail)
		}
		return OK(detail)
	}}
}

// NewTelemetryBudget returns the default overhead tracker of a process
// serving the ops surface: the paper's <2% ceiling, fed on every Status
// call from reg's cumulative counters (nil reg means the process-wide
// default registry). Injected work is the obfuscators' injected
// instructions; capacity is vCPU steps × the per-tick instruction
// budget. This is the overhead-budget math of DESIGN.md: the defense's
// share of the machine's instruction capacity, the quantity the paper
// holds under 2%.
func NewTelemetryBudget(reg *telemetry.Registry) *OverheadBudget {
	if reg == nil {
		reg = telemetry.Default()
	}
	injected := reg.Counter(telemetry.MetricObfuscatorInjectedInstructionsTotal)
	steps := reg.Counter(telemetry.MetricSevVcpuStepsTotal)
	budget := reg.Gauge(telemetry.MetricSevTickBudget)
	return &OverheadBudget{target: DefaultOverheadTarget, source: func() (float64, float64) {
		return injected.Value(), steps.Value() * budget.Value()
	}}
}
