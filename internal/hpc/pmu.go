package hpc

import (
	"errors"
	"fmt"

	"github.com/repro/aegis/internal/faultinject"
	"github.com/repro/aegis/internal/microarch"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/telemetry"
	"github.com/repro/aegis/internal/telemetry/flight"
)

// PMU metrics: raw counter-read and programming volume. RDPMC reads are
// the innermost hot path of both the fuzzer and the obfuscator's kernel
// module, so each is a single atomic add.
var (
	mRDPMCReads  = telemetry.C("hpc_rdpmc_reads_total")
	mPMUPrograms = telemetry.C("hpc_pmu_programs_total")
	mPMUResets   = telemetry.C("hpc_pmu_resets_total")

	// fPMU journals counter lifecycle events: saturation latches are
	// incidents (the reader is now seeing garbage until a re-arm),
	// re-programming a latched slot is the matching recovery record.
	fPMU = flight.Get(flight.KindPMU)
)

// NumCounterRegisters is the number of programmable HPC registers per core;
// modern processors (and the paper's testbed) expose four.
const NumCounterRegisters = 4

// Errors returned by the PMU.
var (
	ErrBadSlot   = errors.New("hpc: counter slot out of range")
	ErrSlotEmpty = errors.New("hpc: counter slot not programmed")
	ErrNilEvent  = errors.New("hpc: nil event")
	// ErrReadFault is returned when an injected fault makes an RDPMC read
	// fail (modelling a read racing counter rotation).
	ErrReadFault = errors.New("hpc: rdpmc read fault")
)

// PMU models one core's performance monitoring unit: four programmable
// counter registers that accumulate a chosen event, read with an RDPMC
// analog. Reads include measurement noise: relative Gaussian jitter plus
// occasional interrupt-induced spikes, reproducing the paper's observation
// (challenge C2) that HPCs never count precisely.
//
// Slots are value-typed and the delta flattening reuses a PMU-owned scratch
// vector, so Program/RDPMC/Reset are allocation-free in steady state
// (gated by `make bench-alloc`).
//
// A PMU is not safe for concurrent use: like real hardware it is per-core
// state, and parallel pipeline workers must each program their own.
type PMU struct {
	core   *microarch.Core
	noise  *rng.Source
	faults *faultinject.Handle
	slots  [NumCounterRegisters]pmcSlot
	// vec is the scratch buffer RDPMC flattens counter deltas into; one
	// per PMU is enough because a PMU is single-owner by contract.
	vec []float64
}

type pmcSlot struct {
	event *Event // nil while the slot is unprogrammed
	base  microarch.Counters
	// drift accumulates the noise already reported so that repeated RDPMC
	// reads of an unchanged counter stay monotonic and consistent.
	drift float64
	// saturated latches the counter at satValue once it overflows; only
	// re-programming the slot clears it (Reset does not — the overflow
	// status bit survives a counter write, like real PMC overflow latches).
	saturated bool
	satValue  float64
}

// NewPMU attaches a PMU to a core. The noise source may be nil for exact
// (noise-free) reads, which the tests use to verify derivations.
func NewPMU(core *microarch.Core, noise *rng.Source) *PMU {
	return &PMU{core: core, noise: noise, vec: make([]float64, microarch.NumSignals)}
}

// SetFaults attaches a fault-injection schedule to this PMU's read path.
// A nil handle (the default) is the healthy substrate.
func (p *PMU) SetFaults(h *faultinject.Handle) { p.faults = h }

// Saturated reports whether a slot's counter is latched at its overflow
// cap. Only Program clears the latch.
func (p *PMU) Saturated(slot int) bool {
	if slot < 0 || slot >= NumCounterRegisters {
		return false
	}
	return p.slots[slot].saturated
}

// Program loads an event into a counter register and zeroes it.
func (p *PMU) Program(slot int, e *Event) error {
	if slot < 0 || slot >= NumCounterRegisters {
		//aegis:allow(hotpathdeep) cold guard: an invalid slot is a caller programming error, never taken on the steady-state path
		return fmt.Errorf("%w: %d", ErrBadSlot, slot)
	}
	if e == nil {
		return ErrNilEvent
	}
	if p.slots[slot].saturated {
		fPMU.Record(0, flight.CodePMURearmed, flight.CodeNone, float64(slot), 0, 0)
	}
	p.slots[slot] = pmcSlot{event: e, base: p.core.Counters()}
	mPMUPrograms.Inc()
	return nil
}

// RDPMC reads a counter register: the event count accumulated since it was
// programmed (or last reset), with measurement noise.
//
// The steady-state path is allocation-free: gated dynamically by TestZeroAllocRDPMC
// (alloc_gate_test.go, `make bench-alloc`) and statically by the
// aegis-lint hotpath rule, which bans allocating constructs in any
// function carrying this annotation.
//
//aegis:hotpath
func (p *PMU) RDPMC(slot int) (float64, error) {
	if slot < 0 || slot >= NumCounterRegisters {
		return 0, fmt.Errorf("%w: %d", ErrBadSlot, slot) //aegis:allow(hotpath) cold validation branch; never taken on the steady-state read path
	}
	s := &p.slots[slot]
	if s.event == nil {
		return 0, ErrSlotEmpty
	}
	mRDPMCReads.Inc()
	if p.faults.PMUReadError() {
		return 0, fmt.Errorf("%w: slot %d", ErrReadFault, slot) //aegis:allow(hotpath) cold fault branch; healthy steady state never formats
	}
	if s.saturated {
		return s.satValue, nil
	}
	if latch, ok := p.faults.CounterSaturation(); ok {
		s.saturated, s.satValue = true, latch
		fPMU.Incident(0, flight.CodePMUSaturated, flight.CodeNone, float64(slot), latch, 0)
		return latch, nil
	}
	delta := p.core.Counters().Sub(s.base)
	p.vec = delta.VectorInto(p.vec)
	v := s.event.Value(p.vec)
	if p.noise != nil && s.event.NoiseSigma > 0 {
		// Relative jitter proportional to the accumulated count plus a
		// small absolute floor so idle counters also wobble.
		jitter := p.noise.Gaussian(0, s.event.NoiseSigma*v+0.05)
		s.drift += jitter * 0.1 // most jitter is transient; a bit sticks
		v += jitter + s.drift
		// Interrupt spike: rare large positive excursion.
		if p.noise.Float64() < 0.005 {
			v += p.noise.Float64() * 50
		}
	}
	if v < 0 {
		v = 0
	}
	return v, nil
}

// Reset re-zeroes a programmed counter without changing its event.
func (p *PMU) Reset(slot int) error {
	if slot < 0 || slot >= NumCounterRegisters {
		//aegis:allow(hotpathdeep) cold guard: an invalid slot is a caller programming error, never taken on the steady-state path
		return fmt.Errorf("%w: %d", ErrBadSlot, slot)
	}
	s := &p.slots[slot]
	if s.event == nil {
		return ErrSlotEmpty
	}
	s.base = p.core.Counters()
	s.drift = 0
	mPMUResets.Inc()
	return nil
}
