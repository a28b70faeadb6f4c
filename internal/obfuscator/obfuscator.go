package obfuscator

import (
	"fmt"
	"time"

	"github.com/repro/aegis/internal/faultinject"
	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/microarch"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/sev"
	"github.com/repro/aegis/internal/telemetry"
	"github.com/repro/aegis/internal/telemetry/flight"
)

// Obfuscator metrics: per-tick injection volume, clip/budget saturation,
// mechanism draw latency, and the degradation funnel (every (plan, tick)
// pair lands in exactly one of injected/zero-draw/no-injection/degraded).
var (
	mTicks           = telemetry.C("obfuscator_ticks_total")
	mInjectedReps    = telemetry.C("obfuscator_injected_reps_total")
	mInjectedCounts  = telemetry.C("obfuscator_injected_counts_total")
	mClipSaturations = telemetry.C("obfuscator_clip_saturations_total")
	mRepSaturations  = telemetry.C("obfuscator_budget_saturations_total")
	mInjectedInstr   = telemetry.C("obfuscator_injected_instructions_total")
	hDrawNanos       = telemetry.H("obfuscator_mechanism_draw_ns",
		telemetry.ExpBuckets(64, 4, 8))

	// fTick journals every tick outcome in the flight recorder; degraded
	// ticks are incidents.
	fTick = flight.Get(flight.KindObfuscatorTick)

	// Robustness metrics.
	mRetries          = telemetry.C("obfuscator_retries_total")
	mInjectedTicks    = telemetry.C("obfuscator_injected_ticks_total")
	mZeroDrawTicks    = telemetry.C("obfuscator_zero_draw_ticks_total")
	mNoInjectionTicks = telemetry.C("obfuscator_no_injection_ticks_total")
	mCounterRearms    = telemetry.C("obfuscator_counter_rearms_total")
	mMechFallbacks    = telemetry.C("obfuscator_mechanism_fallbacks_total")
	// mDegraded is created eagerly per reason so the metric names are
	// stable in expositions even before any fault fires.
	mDegraded = func() map[DegradeReason]*telemetry.Counter {
		out := make(map[DegradeReason]*telemetry.Counter, len(DegradeReasons))
		for _, r := range DegradeReasons {
			out[r] = telemetry.C("obfuscator_degraded_ticks_total", telemetry.L("reason", string(r)))
		}
		return out
	}()
)

// DegradeReason is the closed enum of degradation reasons. The same
// spelling travels everywhere a reason is exported: TickInfo,
// ProtectionReport.DegradedByReason, the
// obfuscator_degraded_ticks_total{reason=...} Prometheus label, and
// (via FlightCode) the flight recorder's JSONL dumps — so label
// cardinality is bounded by this enum and a grep for one spelling finds
// every surface.
type DegradeReason string

// Registered degradation reasons.
const (
	// ReasonKmodAttach: the kernel module could not attach its PMU.
	ReasonKmodAttach DegradeReason = "kmod-attach"
	// ReasonPMURead: the reference-event RDPMC read kept failing after
	// bounded retries; the tick proceeds without an observation.
	ReasonPMURead DegradeReason = "pmu-read"
	// ReasonCounterRearm: the reference counter was found latched at its
	// overflow cap and was re-programmed; this tick's observation is lost.
	ReasonCounterRearm DegradeReason = "counter-rearm"
	// ReasonDStarClipFallback: repeated clip saturations forced the d*
	// mechanism to fall back to Laplace, changing the privacy guarantee.
	ReasonDStarClipFallback DegradeReason = "dstar-clip-fallback"
	// ReasonRetryExhausted: gadget injection kept getting interrupted and
	// the retry budget ran out before the plan completed.
	ReasonRetryExhausted DegradeReason = "retry-exhausted"
	// ReasonExecError: the guest executor failed outright.
	ReasonExecError DegradeReason = "exec-error"
)

// DegradeReasons lists every degradation reason in stable order.
var DegradeReasons = []DegradeReason{
	ReasonKmodAttach, ReasonPMURead, ReasonCounterRearm,
	ReasonDStarClipFallback, ReasonRetryExhausted, ReasonExecError,
}

// String returns the stable wire name (also the Prometheus label value).
func (r DegradeReason) String() string { return string(r) }

// FlightCode maps the reason onto the flight-record taxonomy.
func (r DegradeReason) FlightCode() flight.Code {
	switch r {
	case ReasonKmodAttach:
		return flight.CodeDegradedKmodAttach
	case ReasonPMURead:
		return flight.CodeDegradedPMURead
	case ReasonCounterRearm:
		return flight.CodeDegradedCounterRearm
	case ReasonDStarClipFallback:
		return flight.CodeDegradedDStarClipFallback
	case ReasonRetryExhausted:
		return flight.CodeDegradedRetryExhausted
	case ReasonExecError:
		return flight.CodeDegradedExecError
	default:
		return flight.CodeNone
	}
}

// TickOutcome classifies what one obfuscator tick did. Outcomes are
// mutually exclusive so they reconcile: ticks == injected + zero-draw +
// no-injection + degraded.
type TickOutcome int

const (
	// TickInjected: the tick injected at least one full gadget segment.
	TickInjected TickOutcome = iota
	// TickZeroDraw: the mechanism drew zero or negative noise, clipped to
	// the support's lower bound — the mechanism chose not to inject.
	TickZeroDraw
	// TickNoInjection: the draw was positive but too small to warrant even
	// one segment execution. Distinguished from TickZeroDraw because the
	// mechanism DID ask for noise; the calibration granularity ate it.
	TickNoInjection
	// TickDegraded: a fault kept the tick from following the normal
	// protocol (see TickInfo.DegradedReason). Injection may still have
	// partially happened; protection must not be reported as full.
	TickDegraded
)

// String returns a stable name for the outcome.
func (o TickOutcome) String() string {
	switch o {
	case TickInjected:
		return "injected"
	case TickZeroDraw:
		return "zero-draw"
	case TickNoInjection:
		return "no-injection"
	case TickDegraded:
		return "degraded"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// TickInfo is the result of one obfuscator tick.
type TickInfo struct {
	// Tick is the world tick the info describes.
	Tick int64
	// Outcome classifies the tick.
	Outcome TickOutcome
	// DegradedReason names the first degradation that hit (Outcome ==
	// TickDegraded only).
	DegradedReason DegradeReason
	// RawDraw is the mechanism's draw before clipping (or the injected
	// draw-extreme fault value).
	RawDraw float64
	// Noise is the clipped draw in [0, ClipBound].
	Noise float64
	// ClippedLow/ClippedHigh report clipping at the support bounds.
	ClippedLow, ClippedHigh bool
	// Requested is the segment executions the noise asked for; Injected is
	// how many fully retired. Retries counts re-attempts after
	// fault-interrupted executions or failed PMU reads.
	Requested, Injected, Retries int
	// Applied is Injected×perExec, the counts fed back into d*'s Commit.
	Applied float64
	// Rearmed reports that the reference counter was re-programmed after
	// an overflow latch.
	Rearmed bool
	// FellBack reports that the mechanism fell back to Laplace this tick.
	FellBack bool
}

// ProtectionReport summarises what the obfuscator actually delivered. The
// tick funnel counts (plan, tick) pairs, so a one-plan obfuscator counts
// ticks and an N-plan one N per tick.
type ProtectionReport struct {
	Ticks, InjectedTicks, ZeroDrawTicks, NoInjectionTicks, DegradedTicks int64
	// DegradedByReason splits DegradedTicks (plus fallback events) by
	// reason.
	DegradedByReason map[DegradeReason]int64
	// Retries, CounterRearms, MechanismFallbacks count recovery actions.
	Retries, CounterRearms, MechanismFallbacks int64
	// FaultsSeen is the number of faults injected into this obfuscator's
	// own substrate handles (kernel-module PMU + mechanism draws).
	FaultsSeen uint64
}

// Full reports whether protection ran at full fidelity: no degraded ticks,
// no mechanism fallback, and no faults observed on the obfuscator's own
// substrate. Under faults this is false — the obfuscator never silently
// claims full protection.
func (r ProtectionReport) Full() bool {
	return r.DegradedTicks == 0 && r.MechanismFallbacks == 0 && r.FaultsSeen == 0
}

// Config configures the in-VM obfuscator service.
type Config struct {
	// Mechanism generates the per-tick noise target (event counts).
	Mechanism Mechanism
	// Segment is the stacked gadget code segment from the fuzzer's
	// minimal cover; it is executed repeatedly to inject noise.
	Segment []isa.Variant
	// RefEvent calibrates counts→repetitions and is the event the kernel
	// module monitors for observation-based mechanisms.
	RefEvent *hpc.Event
	// ClipBound is the B_u upper clip of the per-tick injected counts;
	// noise is truncated to [0, ClipBound] because the number of injected
	// gadgets cannot be negative (paper §VIII-C, e.g. 2e4 for
	// RETIRED_UOPS).
	ClipBound float64
	// MaxRepsPerTick caps segment executions per tick so injection cannot
	// starve the protected application outright; 0 means no cap beyond
	// the vCPU budget.
	MaxRepsPerTick int
	// Seed drives the d*→Laplace fallback mechanism's noise stream.
	Seed uint64
	// Faults injects substrate faults into the obfuscator's own kernel
	// module PMU and mechanism draws. The zero value is the healthy
	// substrate.
	Faults faultinject.Config
	// FallbackAfterClips is the number of consecutive clip saturations
	// after which an observation-based d* mechanism falls back to a
	// Laplace mechanism with the same (ε, Δ); 0 means 8, negative
	// disables the fallback.
	FallbackAfterClips int
}

// maxRetries bounds per-plan, per-tick retries of failed PMU reads and
// fault-interrupted gadget executions.
const maxRetries = 3

// Errors returned by the obfuscator.
var (
	ErrNoMechanism = fmt.Errorf("obfuscator: nil mechanism")
	ErrNoSegment   = fmt.Errorf("obfuscator: empty gadget segment")
	ErrNoRefEvent  = fmt.Errorf("obfuscator: nil reference event")
)

// kernelModule is the in-guest controller: it monitors real-time HPC
// values with RDPMC for observation-based mechanisms and forwards them to
// the userspace daemon (the netlink socket of the paper collapses to a
// struct field here).
type kernelModule struct {
	pmu      *hpc.PMU
	attached bool
}

func (k *kernelModule) attach(core *microarch.Core, ev *hpc.Event, faults *faultinject.Handle) error {
	k.pmu = hpc.NewPMU(core, nil) // in-guest reads are taken as ground truth
	k.pmu.SetFaults(faults)
	if err := k.pmu.Program(hpc.NumCounterRegisters-1, ev); err != nil {
		return err
	}
	k.attached = true
	return nil
}

// readAndReset returns the reference event's count since the last tick.
func (k *kernelModule) readAndReset() (float64, error) {
	v, err := k.pmu.RDPMC(hpc.NumCounterRegisters - 1)
	if err != nil {
		return 0, err
	}
	if err := k.pmu.Reset(hpc.NumCounterRegisters - 1); err != nil {
		return 0, err
	}
	return v, nil
}

// saturated reports whether the reference counter is latched at its
// overflow cap.
func (k *kernelModule) saturated() bool {
	return k.pmu.Saturated(hpc.NumCounterRegisters - 1)
}

// rearm re-programs the reference counter, clearing an overflow latch.
func (k *kernelModule) rearm(ev *hpc.Event) error {
	return k.pmu.Program(hpc.NumCounterRegisters-1, ev)
}

// Plan protects one critical HPC event with its own mechanism and gadget
// segment.
type Plan struct {
	Mechanism Mechanism
	Segment   []isa.Variant
	// Event calibrates counts→repetitions and is the event the kernel
	// module monitors for observation-based mechanisms.
	Event *hpc.Event
	// ClipBound is the plan's B_u; 0 means 20000.
	ClipBound float64
}

// planState is one plan's deployment: its calibration, kernel module,
// fault handles and degradation-policy state.
type planState struct {
	Plan
	kmod    kernelModule
	perExec float64 // reference-event counts per segment execution

	// kmodFaults feeds the kernel module's PMU, drawFaults the mechanism
	// draw path; both nil when healthy.
	kmodFaults *faultinject.Handle
	drawFaults *faultinject.Handle

	// The active mechanism (swapped on fallback), the prepared Laplace
	// fallback, and the consecutive high-clip streak that triggers it.
	mech        Mechanism
	mechCode    flight.Code
	fallback    Mechanism
	consecClips int

	injectedCounts float64 // in the plan event's units
}

// Obfuscator is the sev.Process deployed inside the victim VM. It is
// scheduled on the same vCPU as the protected application (paper §VII-C)
// so the hypervisor cannot separate the two. It protects one event per
// plan; the plans share the vCPU tick budget in order, each running the
// same per-tick protocol.
type Obfuscator struct {
	plans []planState

	maxRepsPerTick int
	fallbackAfter  int

	// Telemetry, summed across plans. Tick counts are (plan, tick) pairs.
	injectedReps   int64
	ticks          int64
	saturatedTicks int64

	injectedTicks    int64
	zeroDrawTicks    int64
	noInjectionTicks int64
	degradedTicks    int64
	degradedByReason map[DegradeReason]int64
	retriesTotal     int64
	counterRearms    int64
	fallbacks        int64
	last             TickInfo
}

var _ sev.Process = (*Obfuscator)(nil)

// New builds a single-event obfuscator: the one-plan case of NewMulti. The
// counts→repetitions calibration executes the segment on an offline
// scratch core (part of the one-time deployment work, like the fuzzer's
// offline analysis).
func New(cfg Config) (*Obfuscator, error) {
	return build([]Plan{{
		Mechanism: cfg.Mechanism,
		Segment:   cfg.Segment,
		Event:     cfg.RefEvent,
		ClipBound: cfg.ClipBound,
	}}, cfg)
}

// NewMulti builds an obfuscator reinforcing protection for several
// critical HPC events at once, the deployment the paper recommends the d*
// mechanism for (§VII-B: "d* mechanism is better suited for reinforcing
// protection for multiple critical HPC events"). Each plan runs its own
// noise recursion and injects its own gadget segment, with the same
// retry, re-arm, clip and d*→Laplace fallback policy as a single-event
// obfuscator. seed drives the fallback mechanisms and faults the plans'
// kernel modules and draws.
func NewMulti(plans []Plan, seed uint64, faults faultinject.Config) (*Obfuscator, error) {
	if len(plans) == 0 {
		return nil, fmt.Errorf("obfuscator: no plans")
	}
	return build(plans, Config{Seed: seed, Faults: faults})
}

// build deploys plans under cfg's seed, faults and tick policy (cfg's
// per-event fields are ignored).
func build(plans []Plan, cfg Config) (*Obfuscator, error) {
	fallbackAfter := cfg.FallbackAfterClips
	if fallbackAfter == 0 {
		fallbackAfter = 8
	}
	o := &Obfuscator{
		plans:            make([]planState, len(plans)),
		maxRepsPerTick:   cfg.MaxRepsPerTick,
		fallbackAfter:    fallbackAfter,
		degradedByReason: make(map[DegradeReason]int64),
	}
	faults := faultinject.New(cfg.Faults)
	for i, p := range plans {
		if err := o.plans[i].init(p, i, cfg.Seed, faults, fallbackAfter); err != nil {
			if len(plans) > 1 {
				err = fmt.Errorf("plan %d: %w", i, err)
			}
			return nil, err
		}
	}
	return o, nil
}

// planLabel names plan i's fault handles and fallback stream. Plan 0
// keeps the bare label, so adding plans never changes the first plan's
// fault schedule or fallback draws.
func planLabel(label string, i int) string {
	if i == 0 {
		return label
	}
	return fmt.Sprintf("%s-plan%d", label, i)
}

func (ps *planState) init(p Plan, i int, seed uint64, faults *faultinject.Injector, fallbackAfter int) error {
	if p.Mechanism == nil {
		return ErrNoMechanism
	}
	if len(p.Segment) == 0 {
		return ErrNoSegment
	}
	if p.Event == nil {
		return ErrNoRefEvent
	}
	if p.ClipBound <= 0 {
		p.ClipBound = 20000
	}
	ps.Plan = p
	ps.mech = p.Mechanism
	ps.mechCode = mechFlightCode(p.Mechanism)
	ps.kmodFaults = faults.Handle("obfuscator", planLabel("kmod", i))
	ps.drawFaults = faults.Handle("obfuscator", planLabel("draw", i))
	// Prepare the d*→Laplace fallback with the same privacy parameters:
	// if draws clip persistently, the tree recursion's committed noise no
	// longer matches what was drawn, so a memoryless mechanism is safer.
	if d, ok := p.Mechanism.(*DStarMechanism); ok && fallbackAfter > 0 {
		fb, err := NewLaplaceMechanism(d.Epsilon, d.Sensitivity,
			rng.New(seed).Split(planLabel("obfuscator-fallback", i)))
		if err != nil {
			return err
		}
		ps.fallback = fb
	}
	per, err := calibrateSegment(p.Segment, p.Event)
	if err != nil {
		return err
	}
	ps.perExec = per
	return nil
}

// calibrateSegment measures the reference event's count change of one
// steady-state segment execution.
func calibrateSegment(seg []isa.Variant, ev *hpc.Event) (float64, error) {
	coreCfg := microarch.DefaultCoreConfig()
	coreCfg.InterruptRate = 0
	core := microarch.NewCore(0, coreCfg, nil)
	ctx := microarch.NewScratchContext(0x2000_0000)
	// Warm once, then measure the steady state over several executions.
	if err := core.ExecuteSequence(seg, ctx); err != nil {
		return 0, fmt.Errorf("calibrate segment: %w", err)
	}
	const reps = 8
	before := core.Counters()
	for i := 0; i < reps; i++ {
		if err := core.ExecuteSequence(seg, ctx); err != nil {
			return 0, fmt.Errorf("calibrate segment: %w", err)
		}
	}
	delta := ev.Value(core.Counters().Sub(before).Vector()) / reps
	if delta <= 0 {
		// The segment never perturbs the reference event; fall back to
		// µop-weight so injection still paces sensibly.
		delta = float64(len(seg))
	}
	return delta, nil
}

// Name implements sev.Process.
func (o *Obfuscator) Name() string { return "aegis-obfuscator" }

// Plans returns the number of protected events.
func (o *Obfuscator) Plans() int { return len(o.plans) }

// InjectedCounts returns the cumulative injected noise in reference-event
// counts (the quantity compared across defenses in paper §IX-A), summed
// across plans.
func (o *Obfuscator) InjectedCounts() float64 {
	var sum float64
	for i := range o.plans {
		sum += o.plans[i].injectedCounts
	}
	return sum
}

// PlanStatus is one plan's share of a deployment.
type PlanStatus struct {
	// Mechanism names the plan's active mechanism.
	Mechanism string
	// PerExec is the calibrated event counts per segment execution.
	PerExec float64
	// ClipBound is the plan's B_u.
	ClipBound float64
	// InjectedCounts is the cumulative injected noise in the plan event's
	// units.
	InjectedCounts float64
}

// PlanStatus returns plan i's status.
func (o *Obfuscator) PlanStatus(i int) (PlanStatus, error) {
	if i < 0 || i >= len(o.plans) {
		return PlanStatus{}, fmt.Errorf("obfuscator: plan %d out of range", i)
	}
	p := &o.plans[i]
	return PlanStatus{
		Mechanism:      p.mech.Name(),
		PerExec:        p.perExec,
		ClipBound:      p.ClipBound,
		InjectedCounts: p.injectedCounts,
	}, nil
}

// InjectedReps returns the cumulative segment executions across plans.
func (o *Obfuscator) InjectedReps() int64 { return o.injectedReps }

// SaturationRate returns the fraction of (plan, tick) pairs where the
// vCPU budget or rep cap truncated the requested injection.
func (o *Obfuscator) SaturationRate() float64 {
	if o.ticks == 0 {
		return 0
	}
	return float64(o.saturatedTicks) / float64(o.ticks)
}

// LastTick returns the most recent tick's result: the first degraded
// plan's when any plan degraded, else the first plan's.
func (o *Obfuscator) LastTick() TickInfo { return o.last }

// Report returns the cumulative protection report.
func (o *Obfuscator) Report() ProtectionReport {
	byReason := make(map[DegradeReason]int64, len(o.degradedByReason))
	//aegis:allow(maprange) flat key-by-key copy into a fresh map; iteration order cannot leak
	for k, v := range o.degradedByReason {
		byReason[k] = v
	}
	var faults uint64
	for i := range o.plans {
		faults += o.plans[i].kmodFaults.Total() + o.plans[i].drawFaults.Total()
	}
	return ProtectionReport{
		Ticks:              o.ticks,
		InjectedTicks:      o.injectedTicks,
		ZeroDrawTicks:      o.zeroDrawTicks,
		NoInjectionTicks:   o.noInjectionTicks,
		DegradedTicks:      o.degradedTicks,
		DegradedByReason:   byReason,
		Retries:            o.retriesTotal,
		CounterRearms:      o.counterRearms,
		MechanismFallbacks: o.fallbacks,
		FaultsSeen:         faults,
	}
}

// Step implements sev.Process: one tick of the kernel-module/daemon loop,
// run for each plan in order.
//
// The steady-state path is allocation-free: gated dynamically by TestZeroAllocObfuscatorTick
// (alloc_gate_test.go, `make bench-alloc`) and statically by the
// aegis-lint hotpath rule, which bans allocating constructs in any
// function carrying this annotation.
//
//aegis:hotpath
func (o *Obfuscator) Step(g *sev.GuestExecutor) {
	t := g.Tick()
	for i := range o.plans {
		p := &o.plans[i]
		o.ticks++
		tickSpan := telemetry.StartSpan("obfuscator.tick")
		info := o.runTick(p, g, t)
		tickSpan.End()
		mTicks.Inc()
		if i == 0 || (info.Outcome == TickDegraded && o.last.Outcome != TickDegraded) {
			o.last = info
		}
		o.retriesTotal += int64(info.Retries)
		switch info.Outcome {
		case TickInjected:
			o.injectedTicks++
			mInjectedTicks.Inc()
		case TickZeroDraw:
			o.zeroDrawTicks++
			mZeroDrawTicks.Inc()
		case TickNoInjection:
			o.noInjectionTicks++
			mNoInjectionTicks.Inc()
		case TickDegraded:
			o.degradedTicks++
			o.degradedByReason[info.DegradedReason]++
			if c, ok := mDegraded[info.DegradedReason]; ok {
				c.Inc()
			}
		}
		// Journal the plan's tick: code is the outcome (or degradation
		// reason), sub the active mechanism, payload the
		// draw/injection/retry shape.
		if info.Outcome == TickDegraded {
			fTick.Incident(info.Tick, info.DegradedReason.FlightCode(), p.mechCode,
				info.Noise, float64(info.Injected), float64(info.Retries))
		} else {
			fTick.Record(info.Tick, tickFlightCode(info.Outcome), p.mechCode,
				info.Noise, float64(info.Injected), float64(info.Retries))
		}
	}
}

// tickFlightCode maps a healthy outcome onto the flight-record taxonomy.
func tickFlightCode(o TickOutcome) flight.Code {
	switch o {
	case TickZeroDraw:
		return flight.CodeTickZeroDraw
	case TickNoInjection:
		return flight.CodeTickNoInjection
	default:
		return flight.CodeTickInjected
	}
}

// mechFlightCode maps the active mechanism onto the flight sub-code
// journaled with every tick record.
func mechFlightCode(m Mechanism) flight.Code {
	switch m.(type) {
	case *LaplaceMechanism:
		return flight.CodeMechLaplace
	case *DStarMechanism:
		return flight.CodeMechDStar
	case *RandomNoiseMechanism:
		return flight.CodeMechRandom
	case *ConstantOutputMechanism:
		return flight.CodeMechConstant
	default:
		return flight.CodeMechOther
	}
}

// degrade marks the tick's outcome as degraded with the given reason (the
// first reason sticks).
func degrade(info *TickInfo, reason DegradeReason) {
	info.Outcome = TickDegraded
	if info.DegradedReason == "" {
		info.DegradedReason = reason
	}
}

// runTick executes one plan's tick of the kernel-module/daemon protocol
// with the per-tick degradation policy: bounded retries on PMU read
// failures, counter re-arm on overflow latches, skip-and-count when
// recovery fails, and a d*→Laplace fallback under persistent clip
// saturation.
//
// The steady-state path is allocation-free: gated dynamically by TestZeroAllocObfuscatorTick
// (alloc_gate_test.go, `make bench-alloc`) and statically by the
// aegis-lint hotpath rule, which bans allocating constructs in any
// function carrying this annotation.
//
//aegis:hotpath
func (o *Obfuscator) runTick(p *planState, g *sev.GuestExecutor, t int64) TickInfo {
	info := TickInfo{Tick: t}

	// Kernel module: lazily attach to this vCPU's core, then read the
	// real-time HPC value when the mechanism needs it.
	if !p.kmod.attached {
		if err := p.kmod.attach(g.Core(), p.Event, p.kmodFaults); err != nil {
			degrade(&info, ReasonKmodAttach)
			return info
		}
	}
	var x float64
	if p.mech.NeedsObservation() {
		v, err := p.kmod.readAndReset()
		for attempt := 0; err != nil && attempt < maxRetries; attempt++ {
			info.Retries++
			mRetries.Inc()
			v, err = p.kmod.readAndReset()
		}
		switch {
		case err != nil:
			// Skip-and-count: no observation this tick, no injection —
			// silently injecting on a stale x would distort the recursion.
			degrade(&info, ReasonPMURead)
			return info
		case p.kmod.saturated():
			// The read came back latched at the overflow cap: garbage.
			// Re-arm the counter (re-program clears the latch) and proceed
			// with x = 0 rather than feeding the cap into the mechanism.
			if rerr := p.kmod.rearm(p.Event); rerr != nil {
				degrade(&info, ReasonCounterRearm)
				return info
			}
			o.counterRearms++
			mCounterRearms.Inc()
			info.Rearmed = true
			degrade(&info, ReasonCounterRearm)
			x = 0
		default:
			x = v
		}
	}

	// Daemon: noise calculation with clipping to [0, B_u]. An injected
	// draw-extreme fault replaces the draw with a clipping extreme.
	raw := drawNoise(p.mech, t, x)
	if v, ok := p.drawFaults.DrawExtreme(); ok {
		raw = v
	}
	info.RawDraw = raw
	noise, cLo, cHi := clampDraw(raw, p.ClipBound)
	info.ClippedLow = cLo
	info.ClippedHigh = cHi
	if cHi {
		mClipSaturations.Inc()
		p.consecClips++
	} else {
		p.consecClips = 0
	}
	info.Noise = noise

	// Persistent clip saturation: the d* recursion keeps committing
	// clipped values that diverge from its draws, so swap to the prepared
	// memoryless Laplace fallback (same ε and Δ) from the next tick on.
	if p.fallback != nil && p.mech != p.fallback && p.consecClips >= o.fallbackAfter {
		p.mech = p.fallback
		p.mechCode = mechFlightCode(p.mech)
		o.fallbacks++
		mMechFallbacks.Inc()
		info.FellBack = true
		degrade(&info, ReasonDStarClipFallback)
	}

	// Classify deliberate non-injection before running the injector: a
	// zero/negative draw is the mechanism's choice (the DP support
	// includes 0), a positive draw below one segment's worth is a
	// calibration-granularity no-op.
	if info.Outcome != TickDegraded {
		if raw <= 0 {
			info.Outcome = TickZeroDraw
		} else if int(noise/p.perExec+0.5) == 0 {
			info.Outcome = TickNoInjection
		}
	}

	// Daemon: injection — repeat the stacked gadget segment, retrying
	// fault-interrupted executions with a deterministic backoff (each
	// retry halves the remaining plan, so interrupt storms converge
	// instead of hammering the executor).
	// A tick counts as saturated at most once, whether the rep cap, the
	// vCPU budget or both truncated it.
	reps := int(noise/p.perExec + 0.5)
	saturated := false
	if o.maxRepsPerTick > 0 && reps > o.maxRepsPerTick {
		reps = o.maxRepsPerTick
		saturated = true
	}
	info.Requested = reps
	injectedReps := 0
	planned := reps
	for i := 0; i < planned; {
		n, err := g.ExecuteSeq(p.Segment)
		if err != nil {
			degrade(&info, ReasonExecError)
			break
		}
		if n == len(p.Segment) {
			injectedReps++
			i++
			continue
		}
		if g.Remaining() == 0 {
			// vCPU tick budget exhausted mid-segment: physics, not a
			// fault — stop here as before.
			saturated = true
			if n > 0 {
				injectedReps++ // partial execution still perturbs
			}
			break
		}
		// Budget remains but the segment stopped short: an interrupt
		// landed mid-gadget. Retry with backoff.
		if info.Retries < maxRetries {
			info.Retries++
			mRetries.Inc()
			remaining := planned - i
			planned = i + (remaining+1)/2
			continue
		}
		degrade(&info, ReasonRetryExhausted)
		break
	}
	if saturated {
		o.saturatedTicks++
		mRepSaturations.Inc()
	}
	applied := float64(injectedReps) * p.perExec
	info.Injected = injectedReps
	info.Applied = applied
	p.injectedCounts += applied
	o.injectedReps += int64(injectedReps)
	mInjectedReps.Add(float64(injectedReps))
	mInjectedCounts.Add(applied)
	mInjectedInstr.Add(float64(injectedReps * len(p.Segment)))
	if info.Outcome == TickInjected && injectedReps == 0 {
		// The plan asked for reps but none retired (e.g. budget hit on
		// the very first segment): an empty tick, not an injected one.
		info.Outcome = TickNoInjection
	}

	// Observation-based mechanisms track what was actually injected.
	if d, ok := p.mech.(*DStarMechanism); ok {
		d.Commit(t, applied)
	}
	return info
}

// drawNoise samples the mechanism, timing the draw when telemetry is live.
func drawNoise(m Mechanism, t int64, x float64) float64 {
	if !telemetry.Enabled() {
		return m.Noise(t, x)
	}
	start := time.Now() //aegis:allow(detrand) wall-clock times the draw for telemetry only, never feeds the mechanism
	v := m.Noise(t, x)
	hDrawNanos.Observe(float64(time.Since(start).Nanoseconds())) //aegis:allow(detrand) wall-clock times the draw for telemetry only, never feeds the mechanism
	return v
}
