// Package faultinject is a deterministic, seed-driven fault-injection
// layer for the simulated substrate. Real PMU infrastructure misbehaves
// under load — RDPMC reads race counter rotation, counters overflow and
// latch, and SEV vCPUs are preempted (or single-stepped) by the
// hypervisor mid-gadget. The online defense must keep working on such a
// substrate, so this package makes those failures first-class,
// reproducible events.
//
// Faults are drawn from rng.NewStream schedules: an Injector holds a
// Config, and every injection point derives a Handle identified by a label
// path. Because stream derivation is a pure function of (Seed, labels) —
// Split never advances the parent — the fault schedule a site sees depends
// only on which site it is and how many times it has asked, never on
// scheduling order or worker count. That keeps the parallel pipelines'
// byte-identical determinism contract intact with faults enabled.
//
// A nil *Injector and a nil *Handle are valid "healthy substrate" values:
// every query on them reports no fault, so injection points stay one
// branch on the hot path.
package faultinject

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/telemetry"
	"github.com/repro/aegis/internal/telemetry/flight"
)

// Kind enumerates the injectable fault classes.
type Kind int

// Fault classes, each modelled on a documented real-hardware failure mode.
const (
	// KindPMURead: an RDPMC read fails outright (races a counter
	// rotation).
	KindPMURead Kind = iota
	// KindCounterSaturation: a counter overflows and latches at its cap
	// until re-programmed.
	KindCounterSaturation
	// KindPreemption: the hypervisor preempts the vCPU for a burst of
	// ticks, slashing its instruction budget.
	KindPreemption
	// KindGadgetInterrupt: an interrupt/VM-exit lands mid-sequence, so an
	// injected gadget executes only partially.
	KindGadgetInterrupt
	// KindDrawExtreme: a mechanism draw comes back at a clipping extreme
	// (the Laplace inverse-CDF tail at u near 0 or 1).
	KindDrawExtreme

	numKinds
)

// String returns the stable metric-label name of the kind.
func (k Kind) String() string {
	switch k {
	case KindPMURead:
		return "pmu-read"
	case KindCounterSaturation:
		return "counter-saturation"
	case KindPreemption:
		return "vcpu-preemption"
	case KindGadgetInterrupt:
		return "gadget-interrupt"
	case KindDrawExtreme:
		return "draw-extreme"
	default:
		// String is reachable from hot tick paths (incident labeling), so
		// the out-of-range fallback avoids fmt formatting machinery.
		return "kind(" + strconv.Itoa(int(k)) + ")"
	}
}

// mInjected counts injected faults per kind. The counters are created
// eagerly so the metric names are stable in expositions even before any
// fault fires.
var mInjected = func() [numKinds]*telemetry.Counter {
	var out [numKinds]*telemetry.Counter
	for k := Kind(0); k < numKinds; k++ {
		out[k] = telemetry.C("fault_injected_total", telemetry.L("kind", k.String()))
	}
	return out
}()

// fFault journals every injected fault as a flight incident; flightCodes
// maps each kind onto the shared record taxonomy.
var (
	fFault      = flight.Get(flight.KindFault)
	flightCodes = [numKinds]flight.Code{
		KindPMURead:           flight.CodeFaultPMURead,
		KindCounterSaturation: flight.CodeFaultCounterSaturation,
		KindPreemption:        flight.CodeFaultPreemption,
		KindGadgetInterrupt:   flight.CodeFaultGadgetInterrupt,
		KindDrawExtreme:       flight.CodeFaultDrawExtreme,
	}
)

// Config sets the per-tick (or per-query) probability of each fault class
// plus its shape parameters. The zero value injects nothing.
type Config struct {
	// Seed drives every fault schedule; identical (Seed, labels) replay
	// identical schedules.
	Seed uint64

	// PMUReadErrorRate is the probability an RDPMC read fails.
	PMUReadErrorRate float64
	// CounterSaturationRate is the probability a read saturates the
	// counter, latching it at SaturationCap until re-programmed.
	CounterSaturationRate float64
	// SaturationCap is the latched value of a saturated counter;
	// <= 0 means 1e6.
	SaturationCap float64
	// PreemptionRate is the probability a vCPU tick starts a preemption
	// burst.
	PreemptionRate float64
	// PreemptionBurstTicks is the burst length in ticks; <= 0 means 3.
	PreemptionBurstTicks int
	// PreemptionBudgetFrac is the fraction of the tick budget left to a
	// preempted vCPU; <= 0 means 0.25.
	PreemptionBudgetFrac float64
	// GadgetInterruptRate is the probability a guest instruction sequence
	// is interrupted partway.
	GadgetInterruptRate float64
	// DrawExtremeRate is the probability a mechanism draw is replaced by
	// a clipping extreme.
	DrawExtremeRate float64
	// DrawExtremeMagnitude is the absolute value of that extreme;
	// <= 0 means 1e9.
	DrawExtremeMagnitude float64
}

// Enabled reports whether any fault class has a positive rate.
func (c Config) Enabled() bool {
	return c.PMUReadErrorRate > 0 || c.CounterSaturationRate > 0 ||
		c.PreemptionRate > 0 || c.GadgetInterruptRate > 0 ||
		c.DrawExtremeRate > 0
}

// withDefaults fills shape parameters left at zero.
func (c Config) withDefaults() Config {
	if c.SaturationCap <= 0 {
		c.SaturationCap = 1e6
	}
	if c.PreemptionBurstTicks <= 0 {
		c.PreemptionBurstTicks = 3
	}
	if c.PreemptionBudgetFrac <= 0 {
		c.PreemptionBudgetFrac = 0.25
	}
	if c.DrawExtremeMagnitude <= 0 {
		c.DrawExtremeMagnitude = 1e9
	}
	return c
}

// Preset names accepted by Preset and the CLIs' -faults flag.
const (
	PresetOff   = "off"
	PresetLight = "light"
	PresetHeavy = "heavy"
)

// Preset returns a named fault profile. "off" is the zero Config; "light"
// models an ordinarily flaky substrate; "heavy" models a substrate under
// hostile load (or an actively interfering hypervisor).
func Preset(name string, seed uint64) (Config, error) {
	switch name {
	case PresetOff, "":
		return Config{}, nil
	case PresetLight:
		return Config{
			Seed:                  seed,
			PMUReadErrorRate:      0.01,
			CounterSaturationRate: 0.002,
			PreemptionRate:        0.02,
			GadgetInterruptRate:   0.01,
			DrawExtremeRate:       0.005,
		}, nil
	case PresetHeavy:
		return Config{
			Seed:                  seed,
			PMUReadErrorRate:      0.08,
			CounterSaturationRate: 0.02,
			PreemptionRate:        0.10,
			PreemptionBurstTicks:  5,
			PreemptionBudgetFrac:  0.1,
			GadgetInterruptRate:   0.08,
			DrawExtremeRate:       0.04,
		}, nil
	default:
		return Config{}, fmt.Errorf("faultinject: unknown preset %q (want %s, %s or %s)",
			name, PresetOff, PresetLight, PresetHeavy)
	}
}

// Injector is the root of a fault-schedule tree. It is safe for concurrent
// Handle derivation and count reads; the Handles it returns are not
// goroutine-safe (like rng.Source, each injection site owns its own).
type Injector struct {
	cfg   Config
	total atomic.Uint64
}

// New builds an injector, or returns nil (the healthy substrate) when the
// config injects nothing.
func New(cfg Config) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	return &Injector{cfg: cfg.withDefaults()}
}

// Total returns the number of faults injected so far across every handle
// and kind; nil-safe.
func (in *Injector) Total() uint64 {
	if in == nil {
		return 0
	}
	return in.total.Load()
}

// Handle derives the fault schedule for one injection site. The schedule
// is a pure function of (Config.Seed, labels): two handles with the same
// labels replay the same faults no matter which goroutine derives them or
// when — the property the parallel determinism tests pin down. Nil-safe:
// a nil injector returns a nil (never-faulting) handle.
func (in *Injector) Handle(labels ...string) *Handle {
	if in == nil {
		return nil
	}
	h := &Handle{cfg: in.cfg, root: in}
	base := make([]string, 0, len(labels)+2)
	base = append(base, "faultinject")
	base = append(base, labels...)
	for k := Kind(0); k < numKinds; k++ {
		h.streams[k] = rng.NewStream(in.cfg.Seed, append(base, k.String())...)
	}
	return h
}

// Handle is one injection site's fault schedule. Not safe for concurrent
// use; every query may advance the site's streams. All methods are
// nil-safe and report "no fault" on a nil handle.
type Handle struct {
	cfg     Config
	root    *Injector
	streams [numKinds]*rng.Source
	total   uint64

	// preemptLeft is the remaining length of the current preemption
	// burst.
	preemptLeft int
}

// fire draws one Bernoulli from the kind's stream and accounts the fault
// when it hits.
func (h *Handle) fire(k Kind, rate float64) bool {
	if rate <= 0 || h.streams[k].Float64() >= rate {
		return false
	}
	h.total++
	h.root.total.Add(1)
	mInjected[k].Inc()
	fFault.Incident(0, flightCodes[k], flight.CodeNone, 0, 0, 0)
	return true
}

// Total returns the number of faults this handle injected across kinds.
func (h *Handle) Total() uint64 {
	if h == nil {
		return 0
	}
	return h.total
}

// PMUReadError reports whether this RDPMC read fails.
func (h *Handle) PMUReadError() bool {
	if h == nil {
		return false
	}
	return h.fire(KindPMURead, h.cfg.PMUReadErrorRate)
}

// CounterSaturation reports whether this read saturates the counter,
// returning the latched cap value.
func (h *Handle) CounterSaturation() (float64, bool) {
	if h == nil {
		return 0, false
	}
	if !h.fire(KindCounterSaturation, h.cfg.CounterSaturationRate) {
		return 0, false
	}
	return h.cfg.SaturationCap, true
}

// PreemptBudget returns the vCPU instruction budget for this tick,
// reduced while a preemption burst is active. Bursts start with
// probability PreemptionRate and last PreemptionBurstTicks ticks.
func (h *Handle) PreemptBudget(budget int) int {
	if h == nil {
		return budget
	}
	if h.preemptLeft == 0 && h.fire(KindPreemption, h.cfg.PreemptionRate) {
		h.preemptLeft = h.cfg.PreemptionBurstTicks
	}
	if h.preemptLeft == 0 {
		return budget
	}
	h.preemptLeft--
	b := int(float64(budget) * h.cfg.PreemptionBudgetFrac)
	if b < 1 {
		b = 1
	}
	return b
}

// GadgetInterrupt reports whether a sequence of seqLen instructions is
// interrupted partway, returning how many instructions retire before the
// interrupt (in [0, seqLen)).
func (h *Handle) GadgetInterrupt(seqLen int) (int, bool) {
	if h == nil || seqLen <= 1 {
		return 0, false
	}
	if !h.fire(KindGadgetInterrupt, h.cfg.GadgetInterruptRate) {
		return 0, false
	}
	return h.streams[KindGadgetInterrupt].Intn(seqLen), true
}

// DrawExtreme reports whether a mechanism draw is replaced by a clipping
// extreme, returning the extreme (±DrawExtremeMagnitude).
func (h *Handle) DrawExtreme() (float64, bool) {
	if h == nil {
		return 0, false
	}
	if !h.fire(KindDrawExtreme, h.cfg.DrawExtremeRate) {
		return 0, false
	}
	v := h.cfg.DrawExtremeMagnitude
	if h.streams[KindDrawExtreme].Float64() < 0.5 {
		v = -v
	}
	return v, true
}
