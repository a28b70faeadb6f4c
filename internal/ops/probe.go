package ops

import "sync/atomic"

// State is a component health verdict. Degraded components keep the
// process alive (healthz stays 200) but are visibly impaired; a failed
// component fails the whole health check.
type State int

// Health states, in increasing severity.
const (
	StateOK State = iota
	StateDegraded
	StateFailed
)

// String returns the stable wire name of the state.
func (s State) String() string {
	switch s {
	case StateOK:
		return "ok"
	case StateDegraded:
		return "degraded"
	case StateFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// ProbeResult is one probe's verdict with optional human detail.
type ProbeResult struct {
	State  State  `json:"state"`
	Detail string `json:"detail,omitempty"`
}

// Probe is one named component check. Check must be safe for concurrent
// use and cheap: it runs on every /healthz or /readyz request.
type Probe struct {
	Name  string
	Check func() ProbeResult
}

// OK builds a healthy result.
func OK(detail string) ProbeResult { return ProbeResult{State: StateOK, Detail: detail} }

// Degraded builds a degraded result.
func Degraded(detail string) ProbeResult {
	return ProbeResult{State: StateDegraded, Detail: detail}
}

// Failed builds a failed result.
func Failed(detail string) ProbeResult {
	return ProbeResult{State: StateFailed, Detail: detail}
}

// Gate is an atomic readiness latch: a readiness probe that fails until
// Open is called. The framework opens its warm-up gate once the first
// defense is deployed, so /readyz keeps load away until the plan is warm.
type Gate struct {
	name string
	open atomic.Bool
}

// NewGate builds a closed gate.
func NewGate(name string) *Gate { return &Gate{name: name} }

// Open marks the gate ready. Idempotent.
func (g *Gate) Open() { g.open.Store(true) }

// Close marks the gate not ready again.
func (g *Gate) Close() { g.open.Store(false) }

// Probe returns the gate as a readiness probe.
func (g *Gate) Probe() Probe {
	return Probe{Name: g.name, Check: func() ProbeResult {
		if g.open.Load() {
			return OK("")
		}
		return Failed("warming up")
	}}
}
