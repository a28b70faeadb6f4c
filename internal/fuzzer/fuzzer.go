// Package fuzzer implements Aegis's Event Fuzzer (paper §VI): the offline
// module that searches instruction gadgets able to perturb the vulnerable
// HPC events found by the Application Profiler.
//
// A gadget is a reset sequence followed by a trigger sequence: the reset
// drives the event to a known state S0 (e.g. CLFLUSH empties the cache
// line), the trigger transitions it to S1 (a load refills the line and the
// refill counter ticks). Candidate gadgets are sampled grammar-style from
// the post-cleanup legal instruction list, executed on an isolated core
// with RDPMC measurements around them, and confirmed with the paper's
// three mechanisms: multiple executions (median over repeats), repeated
// triggers (cold vs hot paths under the λ1/λ2 constraints), and random
// reordering (to flush inherited dirty state). Confirmed gadgets are
// clustered by instruction properties and reduced to a minimal covering
// set for the obfuscator.
package fuzzer

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/repro/aegis/internal/artifact"
	"github.com/repro/aegis/internal/faultinject"
	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/microarch"
	"github.com/repro/aegis/internal/parallel"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/stats"
	"github.com/repro/aegis/internal/telemetry"
	"github.com/repro/aegis/internal/telemetry/flight"
)

// Fuzzer metrics: candidate funnel (tried → screened → confirmed),
// rejection causes, confirmed-gadget strength and cover-reduction timing.
var (
	mCandidatesTried    = telemetry.C("fuzzer_candidates_tried_total")
	mCandidatesMeasured = telemetry.C("fuzzer_candidates_measured_total")
	mCandidatesScreened = telemetry.C("fuzzer_candidates_screened_total")
	mConfirmed          = telemetry.C("fuzzer_candidates_confirmed_total")
	mRejectedTriggers   = telemetry.C("fuzzer_candidates_rejected_total",
		telemetry.L("stage", "repeated-triggers"))
	mRejectedReorder = telemetry.C("fuzzer_candidates_rejected_total",
		telemetry.L("stage", "reordering"))
	mEventsSkipped  = telemetry.C("fuzzer_events_skipped_total")
	mDroppedByFault = telemetry.C("fuzzer_candidates_dropped_total",
		telemetry.L("reason", "read-fault"))
	mMemoHits    = telemetry.C("fuzzer_screen_memo_total", telemetry.L("outcome", "hit"))
	mMemoMisses  = telemetry.C("fuzzer_screen_memo_total", telemetry.L("outcome", "miss"))
	mPrefiltered = telemetry.C("fuzzer_candidates_prefiltered_total")
	//aegis:allow(metricname) pre-registry name: a dimensionless count delta; renaming would break exposition goldens
	hConfirmedDelta = telemetry.H("fuzzer_confirmed_delta",
		[]float64{1, 2, 5, 10, 25, 50, 100, 250})
	hEventSeconds = telemetry.H("fuzzer_event_seconds", telemetry.DefBuckets)
	hCoverSeconds = telemetry.H("fuzzer_cover_seconds", telemetry.DefBuckets)
	stageCampaign = telemetry.Stage("fuzzer.campaign")

	// fStage journals stage completions; only from input-ordered merge
	// points or stage boundaries, never from shard workers, so the
	// journal stays replay-stable.
	fStage = flight.Get(flight.KindStage)
)

// Errors returned by the fuzzer.
var (
	ErrNoLegalInstructions = errors.New("fuzzer: empty legal instruction list")
	ErrNoTargetEvents      = errors.New("fuzzer: no target events")
)

// Gadget is a reset+trigger instruction pair (paper §VI-D uses one
// instruction per sequence; multi-instruction sequences are future work).
type Gadget struct {
	Reset   isa.Variant
	Trigger isa.Variant
}

// Sequence returns the gadget's executable instruction sequence.
func (g Gadget) Sequence() []isa.Variant {
	return []isa.Variant{g.Reset, g.Trigger}
}

// ops decodes the gadget for execution: the reset, then the trigger.
func (g Gadget) ops() [2]microarch.Op {
	return [2]microarch.Op{microarch.Decode(&g.Reset), microarch.Decode(&g.Trigger)}
}

// Key identifies the gadget.
func (g Gadget) Key() string {
	return g.Reset.Key() + " ; " + g.Trigger.Key()
}

// gadgetID is the gadget's dense identity: the stable isa.Variant IDs of
// its reset and trigger. All gadgets of a Fuzzer are drawn from one legal
// list, within which variant IDs are unique, so the pair identifies the
// gadget as precisely as Key() — without assembling a string per lookup.
type gadgetID [2]int

func (g Gadget) id() gadgetID { return gadgetID{g.Reset.ID, g.Trigger.ID} }

// ClusterKey groups gadgets by the instruction properties that indicate
// their micro-architectural root cause (paper §VI-F: extension and
// category of reset and trigger).
func (g Gadget) ClusterKey() string {
	return fmt.Sprintf("%s/%s -> %s/%s",
		g.Reset.Extension, g.Reset.Category, g.Trigger.Extension, g.Trigger.Category)
}

// Finding is one confirmed gadget for one event.
type Finding struct {
	Gadget Gadget
	Event  *hpc.Event
	// MedianDelta is the median event count change per gadget execution.
	MedianDelta float64
}

// The confirmation constants of paper §VI-E: repeats is R, the
// executions of each repeated-trigger path and of the reordering median;
// lambda1 is λ1 in |V2-V1 - R(v2-v1)| <= λ1·R·|v2-v1|; lambda2 is λ2 in
// V2 > λ2·V1. minDelta is the smallest median count change that counts
// as a perturbation. Fuzzing always measures through a noisy PMU, so the
// confirmations are load-bearing.
const (
	repeats  = 10
	lambda1  = 0.2
	lambda2  = 10
	minDelta = 0.75
)

// Config tunes the fuzzing campaign.
type Config struct {
	// CandidatesPerEvent is the number of gadget candidates sampled per
	// target event. The paper fuzzes the full 3407² cross product on
	// native hardware; the simulator samples a subset and documents the
	// scaling in EXPERIMENTS.md.
	CandidatesPerEvent int
	// Seed drives candidate sampling and reordering.
	Seed uint64
	// DisableConfirmation skips the repeated-trigger and reordering
	// checks, accepting every screened candidate. Only the ablation
	// benchmarks use this; it quantifies the false positives the paper's
	// confirmation mechanisms remove.
	DisableConfirmation bool
	// Parallelism bounds the worker count of the campaign fan-out; <= 0
	// uses GOMAXPROCS. Results are byte-identical at any value: every
	// event derives its RNG streams and measurement benches from
	// (Seed, event name) alone, never from shared mutable state.
	Parallelism int
	// Faults injects substrate faults (PMU read errors, counter
	// saturation) into the measurement benches. Schedules are derived per
	// (event, bench) label, so they obey the same parallelism-independence
	// contract as the RNG streams. The zero value is the healthy substrate.
	Faults faultinject.Config
	// Store, when set, checkpoints per-event search outcomes and the
	// screening memo as versioned artifacts at the campaign's
	// input-ordered merge points and resumes events whose fingerprint
	// matches on restart. Resume is invisible to results; failed events
	// are never cached.
	Store *artifact.Store
}

// DefaultConfig returns evaluation defaults.
func DefaultConfig(seed uint64) Config {
	return Config{CandidatesPerEvent: 600, Seed: seed}
}

// benchCore configures the measurement core: the default core, isolated
// (isolcpus analog), so no scheduler interrupts reach it.
func benchCore() microarch.CoreConfig {
	cfg := microarch.DefaultCoreConfig()
	cfg.InterruptRate = 0
	return cfg
}

// StepTiming records wall-clock per fuzzing step (paper Table III).
// GenerateExec and Confirmation sum the two phases' measured time over
// the events searched (resumed events add nothing), so parallel events
// overlap in them; DisableConfirmation leaves Confirmation at 0.
type StepTiming struct {
	GenerateExec time.Duration
	Confirmation time.Duration
	Filtering    time.Duration
}

// Counts tallies the candidates of an event search or a campaign.
type Counts struct {
	// Tried is every candidate gadget sampled, including those the
	// noise-free signature prefilter rejects without running them.
	Tried int
	// Measured is the candidates run on the noisy measuring bench: those
	// the prefilter lets through. Each runs its median-delta repeats.
	Measured int
}

// SkippedEvent is one event dropped from a campaign because its FuzzEvent
// failed; the rest of the campaign completed without it.
type SkippedEvent struct {
	// Event is the event's name (or a positional placeholder for a nil
	// event).
	Event string
	// Err is the failure that caused the skip.
	Err error
}

// Result is a full fuzzing campaign outcome.
type Result struct {
	// PerEvent maps event name to its confirmed findings (post filter).
	PerEvent map[string][]Finding
	// Representatives holds one best gadget per cluster per event.
	Representatives map[string][]Finding
	// Best maps event name to the gadget with the highest median delta.
	Best map[string]Finding
	// Skipped lists the events whose searches failed, in input order.
	// Their PerEvent entries are absent; everything else is complete.
	Skipped []SkippedEvent
	// CandidatesTried is the number of candidate gadgets sampled,
	// including those the signature prefilter rejects unrun.
	CandidatesTried int
	// CandidatesMeasured is the number of candidates run on a measuring
	// bench (Counts.Measured summed over the events).
	CandidatesMeasured int
	// Timing is the per-step wall clock.
	Timing StepTiming
}

// Fuzzer runs gadget-search campaigns. A Fuzzer is safe for the concurrent
// per-event fan-out of Fuzz: its fields are read-only after New except the
// screening memo, which is lock-protected and caches only pure values, and
// the cold-bench pool.
type Fuzzer struct {
	legal  []isa.Variant
	cfg    Config
	root   *rng.Source
	memo   *screenMemo
	faults *faultinject.Injector
	// cold pools the noise-free benches signatures are measured on, so a
	// memo miss resets a core instead of building one.
	cold sync.Pool
	// resumeOnce/legalHash/byID cache the legal-list fingerprint and the
	// variant-ID index used by artifact resume.
	resumeOnce sync.Once
	legalHash  string
	byID       map[int]isa.Variant
}

// gadgetSig is a gadget's noise-free execution signature: the raw counter
// deltas of running it on a cold, interrupt-free bench. cold is the first
// execution (empty caches), warm the second (steady state), total their
// sum — exactly the two-execution measurement MinimalCover credits
// coverage from. The signature is a pure function of (gadget, CoreConfig),
// so it is identical no matter which event, worker or stage computes it.
type gadgetSig struct {
	cold  []float64
	warm  []float64
	total []float64
}

// screenMemo is the cross-event screening memo: signatures keyed by the
// dense gadgetID (the reset/trigger variant IDs the sampling loop already
// holds — no per-lookup string assembly), shared by every event shard of a
// campaign and by MinimalCover. Because cached values are pure, a hit
// returns exactly what recomputation would, keeping results independent of
// worker count and scheduling order.
type screenMemo struct {
	mu   sync.Mutex
	sigs map[gadgetID]gadgetSig
}

// lookup returns the cached signature for a gadget, if present.
func (m *screenMemo) lookup(id gadgetID) (gadgetSig, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sig, ok := m.sigs[id]
	return sig, ok
}

// store caches a computed signature.
func (m *screenMemo) store(id gadgetID, sig gadgetSig) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sigs == nil {
		m.sigs = make(map[gadgetID]gadgetSig)
	}
	m.sigs[id] = sig
}

// signature measures (or recalls) the noise-free signature of g, decoded
// as seq. Both the screening prefilter and MinimalCover draw from the same
// memo, so a gadget screened during the campaign never pays for its cover
// measurement again. A signature is a gadget's first execution, so it is
// where a faulting gadget fails.
func (f *Fuzzer) signature(g Gadget, seq []microarch.Op) (gadgetSig, error) {
	id := g.id()
	if sig, ok := f.memo.lookup(id); ok {
		mMemoHits.Inc()
		return sig, nil
	}
	mMemoMisses.Inc()
	// Compute outside the lock: the value is pure, so a racing duplicate
	// computation stores an identical signature.
	sig, err := f.coldSignature(seq)
	if err != nil {
		// The core's fault names only the op's class.
		return gadgetSig{}, fmt.Errorf("fuzzer: gadget %s: %w", g.Key(), err)
	}
	f.memo.store(id, sig)
	return sig, nil
}

// coldSignature measures seq on a pooled bench reset to the state
// newBench(nil, nil) builds, so the result equals a fresh bench's.
// Signature benches stay fault-free (nil handle) even when the campaign
// injects faults — otherwise cache hits would make results
// scheduling-dependent.
func (f *Fuzzer) coldSignature(seq []microarch.Op) (gadgetSig, error) {
	b := f.cold.Get().(*bench)
	defer f.cold.Put(b)
	b.core.Reset()
	*b.ctx = *microarch.NewScratchContext(scratchBase)
	return b.signature(seq)
}

// signature runs seq twice from the bench's current state and returns the
// cold, warm and total counter deltas.
func (b *bench) signature(seq []microarch.Op) (gadgetSig, error) {
	before := b.core.Counters()
	if err := b.core.ExecuteSequence(seq, b.ctx); err != nil {
		return gadgetSig{}, err
	}
	afterCold := b.core.Counters()
	if err := b.core.ExecuteSequence(seq, b.ctx); err != nil {
		return gadgetSig{}, err
	}
	afterWarm := b.core.Counters()
	return gadgetSig{
		cold:  afterCold.Sub(before).VectorInto(nil),
		warm:  afterWarm.Sub(afterCold).VectorInto(nil),
		total: afterWarm.Sub(before).VectorInto(nil),
	}, nil
}

// canPerturb reports whether the signature shows any mechanistic effect of
// at least minDelta on the event, in either the cold or steady-state
// execution. Candidates that fail this cannot pass screening except
// through measurement noise, so FuzzEvent rejects them without paying for
// the repeated noisy measurements.
func (f *Fuzzer) canPerturb(event *hpc.Event, sig gadgetSig) bool {
	return event.Value(sig.cold) >= minDelta ||
		event.Value(sig.warm) >= minDelta ||
		event.Value(sig.total) >= minDelta
}

// New builds a fuzzer over the post-cleanup legal instruction list. cfg
// starts from DefaultConfig; New fills in nothing.
func New(legal []isa.Variant, cfg Config) (*Fuzzer, error) {
	if len(legal) == 0 {
		return nil, ErrNoLegalInstructions
	}
	f := &Fuzzer{
		legal:  append([]isa.Variant(nil), legal...),
		cfg:    cfg,
		root:   rng.New(cfg.Seed).Split("fuzzer"),
		memo:   &screenMemo{},
		faults: faultinject.New(cfg.Faults),
	}
	f.cold.New = func() any { return f.newBench(nil, nil) }
	return f, nil
}

// scratchBase is the address of the bench's pre-allocated data page.
const scratchBase = 0x1000_0000

// bench is one measurement environment: an isolated core with a scratch
// data page and a noise-free or noisy PMU. The sample buffers below are
// bench-owned scratch for the median confirmations, reused (and sorted in
// place) across candidates so the measurement loop stays allocation-free;
// a bench is single-owner like the PMU it wraps.
type bench struct {
	core *microarch.Core
	ctx  *microarch.ExecContext
	pmu  *hpc.PMU
	vals []float64 // medianDelta samples
	cold []float64 // repeatedTriggers cold-path samples
	hot  []float64 // repeatedTriggers hot-path samples
}

func (f *Fuzzer) newBench(noise *rng.Source, faults *faultinject.Handle) *bench {
	core := microarch.NewCore(0, benchCore(), nil)
	pmu := hpc.NewPMU(core, noise)
	pmu.SetFaults(faults)
	return &bench{
		core: core,
		ctx:  microarch.NewScratchContext(scratchBase),
		pmu:  pmu,
	}
}

// cpuid is the serialising instruction of the measurement prolog and
// epilog.
var cpuid = microarch.Decode(&isa.Variant{Mnemonic: "CPUID", Class: isa.ClassSerial, Uops: 20})

// measureGadget executes seq once between serialising instructions (the
// prolog/epilog of paper §VI-D) and returns the event count change.
func (b *bench) measureGadget(event *hpc.Event, seq []microarch.Op) (float64, error) {
	if err := b.pmu.Program(0, event); err != nil {
		return 0, err
	}
	// Serialising prolog regulates the execution flow before measurement.
	if err := b.core.ExecuteOp(cpuid, b.ctx); err != nil {
		return 0, err
	}
	if err := b.pmu.Reset(0); err != nil {
		return 0, err
	}
	if err := b.core.ExecuteSequence(seq, b.ctx); err != nil {
		return 0, err
	}
	v, err := b.pmu.RDPMC(0)
	if err != nil {
		return 0, err
	}
	// Epilog: serialise again so the next measurement starts clean.
	if err := b.core.ExecuteOp(cpuid, b.ctx); err != nil {
		return 0, err
	}
	return v, nil
}

// medianDelta runs the gadget n times and returns the median change
// (multiple-executions confirmation, paper §VI-E).
func (b *bench) medianDelta(event *hpc.Event, seq []microarch.Op, n int) (float64, error) {
	vals := b.vals[:0]
	for i := 0; i < n; i++ {
		v, err := b.measureGadget(event, seq)
		if err != nil {
			return 0, err
		}
		vals = append(vals, v)
	}
	b.vals = vals
	sort.Float64s(vals)
	return stats.SortedMedian(vals), nil
}

// repeatedTriggers applies the cold/hot path check of paper §VI-E (Fig. 6):
// the cold path executes only the reset sequence, the hot path executes
// reset+trigger; both repeated R times. The change must be attributable to
// the trigger, and the reset must restore S0 each iteration. seq is the
// decoded gadget, reset first.
func (b *bench) repeatedTriggers(event *hpc.Event, seq []microarch.Op) (bool, error) {
	coldSingle := b.cold[:0]
	hotSingle := b.hot[:0]
	var v1Cum, v2Cum float64

	// Cold path: reset only.
	for i := 0; i < repeats; i++ {
		v, err := b.measureGadget(event, seq[:1])
		if err != nil {
			return false, err
		}
		coldSingle = append(coldSingle, v)
		v1Cum += v
	}
	// Hot path: reset + trigger.
	for i := 0; i < repeats; i++ {
		v, err := b.measureGadget(event, seq)
		if err != nil {
			return false, err
		}
		hotSingle = append(hotSingle, v)
		v2Cum += v
	}
	b.cold, b.hot = coldSingle, hotSingle
	sort.Float64s(coldSingle)
	sort.Float64s(hotSingle)
	v1 := stats.SortedMedian(coldSingle)
	v2 := stats.SortedMedian(hotSingle)
	diff := v2 - v1
	if diff < minDelta {
		return false, nil
	}
	// Constraint 1: V2 - V1 ≈ R (v2 - v1), within λ1 tolerance.
	lhs := v2Cum - v1Cum
	rhs := repeats * diff
	if lhs < (1-lambda1)*rhs || lhs > (1+lambda1)*rhs {
		return false, nil
	}
	// Constraint 2: V2 > λ2 V1 — the trigger dominates the reset's own
	// side effects on this event.
	if v2Cum <= lambda2*v1Cum {
		return false, nil
	}
	return true, nil
}

// FuzzEvent searches gadgets for one target event and returns the
// confirmed findings (pre-filtering), its candidate counts and the time
// its generation+execution and confirmation phases took.
func (f *Fuzzer) FuzzEvent(event *hpc.Event) ([]Finding, Counts, StepTiming, error) {
	var (
		timing StepTiming
		n      Counts
	)
	if event == nil {
		return nil, n, timing, ErrNoTargetEvents
	}
	defer hEventSeconds.Start().Stop()
	r := f.root.Split("event/" + event.Name)
	b := f.newBench(r.Split("bench"), f.faults.Handle("fuzzer", event.Name, "bench"))

	type candidate struct {
		g     Gadget
		ops   [2]microarch.Op
		delta float64
	}
	var reported []candidate
	dropped := 0
	start := time.Now() //aegis:allow(detrand) wall-clock feeds Timing telemetry only, never simulation state

	// Generation + execution: sample candidate pairs and keep the ones
	// whose median delta indicates a perturbation. The cross-event memo
	// prefilters candidates whose noise-free signature shows no effect on
	// this event, skipping their repeated noisy measurements; the
	// signature is pure, so the skip pattern is scheduling-independent.
	//
	// Degradation policy: a candidate whose measurement hits an injected
	// RDPMC read fault is dropped (and counted), not fatal — a real
	// campaign discards the bad sample and keeps fuzzing. Only when every
	// measurement fails is the bench declared unusable and the event
	// skipped.
	for i := 0; i < f.cfg.CandidatesPerEvent; i++ {
		g := Gadget{
			Reset:   f.legal[r.Intn(len(f.legal))],
			Trigger: f.legal[r.Intn(len(f.legal))],
		}
		ops := g.ops()
		n.Tried++
		sig, err := f.signature(g, ops[:])
		if err != nil {
			return nil, n, timing, err
		}
		if !f.canPerturb(event, sig) {
			mPrefiltered.Inc()
			continue
		}
		n.Measured++
		med, err := b.medianDelta(event, ops[:], 3)
		if err != nil {
			if errors.Is(err, hpc.ErrReadFault) {
				dropped++
				mDroppedByFault.Inc()
				continue
			}
			return nil, n, timing, err
		}
		if med >= minDelta {
			reported = append(reported, candidate{g: g, ops: ops, delta: med})
		}
	}
	mCandidatesTried.Add(float64(n.Tried))
	mCandidatesMeasured.Add(float64(n.Measured))
	mCandidatesScreened.Add(float64(len(reported)))
	timing.GenerateExec = time.Since(start) //aegis:allow(detrand) wall-clock feeds Timing telemetry only, never simulation state
	if n.Measured > 0 && dropped == n.Measured {
		return nil, n, timing, fmt.Errorf("fuzzer: every candidate measurement failed: %w", hpc.ErrReadFault)
	}

	if f.cfg.DisableConfirmation {
		out := make([]Finding, 0, len(reported))
		for _, c := range reported {
			out = append(out, Finding{Gadget: c.g, Event: event, MedianDelta: c.delta})
		}
		return out, n, timing, nil
	}

	// Confirmation pass 1: repeated triggers on a fresh bench.
	start = time.Now() //aegis:allow(detrand) wall-clock feeds Timing telemetry only, never simulation state
	confirmBench := f.newBench(r.Split("confirm"), f.faults.Handle("fuzzer", event.Name, "confirm"))
	var confirmed []candidate
	for _, c := range reported {
		ok, err := confirmBench.repeatedTriggers(event, c.ops[:])
		if err != nil {
			// A read fault mid-confirmation rejects the candidate: we
			// could not confirm it, so it must not ship.
			if errors.Is(err, hpc.ErrReadFault) {
				mDroppedByFault.Inc()
				mRejectedTriggers.Inc()
				continue
			}
			return nil, n, timing, err
		}
		if ok {
			confirmed = append(confirmed, c)
		} else {
			mRejectedTriggers.Inc()
		}
	}

	// Confirmation pass 2: gadget reordering. Re-run the confirmed set in
	// a random order on a fresh bench; drop gadgets whose delta deviates,
	// which indicates dependence on inherited dirty state.
	reorderBench := f.newBench(r.Split("reorder"), f.faults.Handle("fuzzer", event.Name, "reorder"))
	order := r.Perm(len(confirmed))
	stable := make([]bool, len(confirmed))
	for _, idx := range order {
		c := confirmed[idx]
		med, err := reorderBench.medianDelta(event, c.ops[:], repeats)
		if err != nil {
			if errors.Is(err, hpc.ErrReadFault) {
				mDroppedByFault.Inc()
				stable[idx] = false
				continue
			}
			return nil, n, timing, err
		}
		lo := c.delta * 0.5
		hi := c.delta*1.5 + 2
		stable[idx] = med >= minDelta && med >= lo && med <= hi
	}

	var out []Finding
	for i, c := range confirmed {
		if stable[i] {
			out = append(out, Finding{Gadget: c.g, Event: event, MedianDelta: c.delta})
			mConfirmed.Inc()
			hConfirmedDelta.Observe(c.delta)
		} else {
			mRejectedReorder.Inc()
		}
	}
	timing.Confirmation = time.Since(start) //aegis:allow(detrand) wall-clock feeds Timing telemetry only, never simulation state
	return out, n, timing, nil
}

// filter clusters findings by gadget properties and keeps the strongest
// representative per cluster (paper §VI-F).
func filter(findings []Finding) (reps []Finding, best Finding) {
	byCluster := make(map[string]Finding)
	for _, fd := range findings {
		key := fd.Gadget.ClusterKey()
		if cur, ok := byCluster[key]; !ok || fd.MedianDelta > cur.MedianDelta {
			byCluster[key] = fd
		}
		if fd.MedianDelta > best.MedianDelta {
			best = fd
		}
	}
	keys := make([]string, 0, len(byCluster))
	for k := range byCluster {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		reps = append(reps, byCluster[k])
	}
	sort.SliceStable(reps, func(i, j int) bool { return reps[i].MedianDelta > reps[j].MedianDelta })
	return reps, best
}

// Fuzz runs the full campaign over the target events, fanning the per-event
// searches out across Config.Parallelism workers. Each event shard owns its
// benches (one PMU each) and derives every RNG stream from (Seed, event
// name), and findings merge in input-event order, so the Result is
// byte-identical at any parallelism level.
//
// A failing event does not abort the campaign: the event is skipped,
// counted in telemetry, recorded in Result.Skipped, and the partial Result
// is returned together with an error wrapping every per-event failure
// (mirroring ProtectMulti's skip semantics). Only when every event fails is
// the Result nil.
func (f *Fuzzer) Fuzz(events []*hpc.Event) (*Result, error) {
	if len(events) == 0 {
		return nil, ErrNoTargetEvents
	}
	defer stageCampaign.Start().Stop()
	res := &Result{
		PerEvent:        make(map[string][]Finding, len(events)),
		Representatives: make(map[string][]Finding, len(events)),
		Best:            make(map[string]Finding, len(events)),
	}

	// Resume: restore events whose findings artifact matches the campaign
	// fingerprint and fan out only the misses. Every event shard derives
	// its streams from (Seed, event name) alone, so skipping cached
	// events leaves the recomputed ones bit-identical. Failed events are
	// never cached, so an error always re-runs.
	type outcome struct {
		findings []Finding
		n        Counts
		timing   StepTiming
		err      error
	}
	outs := make([]outcome, len(events))
	missIdx := make([]int, 0, len(events))
	if f.cfg.Store != nil {
		f.loadMemo()
		for i, e := range events {
			if e != nil {
				if findings, n, ok := f.loadEvent(e); ok {
					outs[i] = outcome{findings: findings, n: n}
					mFuzzResumeHit.Inc()
					continue
				}
				mFuzzResumeMiss.Inc()
			}
			missIdx = append(missIdx, i)
		}
	} else {
		for i := range events {
			missIdx = append(missIdx, i)
		}
	}

	// Fan the missing events out; shard failures are carried in the
	// outcome (not as Map errors) so one bad event never cancels its
	// siblings.
	pool := parallel.NewPool("fuzzer.events", f.cfg.Parallelism)
	fresh, _ := parallel.Map(context.Background(), pool, len(missIdx),
		func(_ context.Context, i int) (outcome, error) {
			findings, n, timing, err := f.FuzzEvent(events[missIdx[i]])
			return outcome{findings: findings, n: n, timing: timing, err: err}, nil
		})
	// Merge point: fold the fresh outcomes back in input-event order and
	// checkpoint the successful ones.
	for mi, i := range missIdx {
		outs[i] = fresh[mi]
		res.Timing.GenerateExec += fresh[mi].timing.GenerateExec
		res.Timing.Confirmation += fresh[mi].timing.Confirmation
		if f.cfg.Store != nil && fresh[mi].err == nil && events[i] != nil {
			f.storeEvent(events[i], fresh[mi].findings, fresh[mi].n)
		}
	}

	// Merge in stable input-event order.
	var errs []error
	for i, out := range outs {
		name := fmt.Sprintf("event[%d]", i)
		if events[i] != nil {
			name = events[i].Name
		}
		res.CandidatesTried += out.n.Tried
		res.CandidatesMeasured += out.n.Measured
		if out.err != nil {
			mEventsSkipped.Inc()
			telemetry.Log().Warn("fuzzer: event skipped, search failed",
				telemetry.F("event", name), telemetry.F("error", out.err.Error()))
			res.Skipped = append(res.Skipped, SkippedEvent{Event: name, Err: out.err})
			errs = append(errs, fmt.Errorf("fuzz %s: %w", name, out.err))
			continue
		}
		res.PerEvent[name] = out.findings
		// Journal at the input-ordered merge point, not in the shard
		// worker, so the stage records stay replay-stable.
		fStage.Record(0, flight.CodeStageFuzzerEvent,
			flight.CodeNone, float64(out.n.Tried), float64(len(out.findings)), 0)
	}
	if len(errs) == len(events) {
		return nil, fmt.Errorf("fuzzer: every event failed: %w", errors.Join(errs...))
	}

	filterStart := time.Now() //aegis:allow(detrand) wall-clock feeds Timing telemetry only, never simulation state
	eventNames := make([]string, 0, len(res.PerEvent))
	for name := range res.PerEvent {
		eventNames = append(eventNames, name)
	}
	sort.Strings(eventNames)
	for _, name := range eventNames {
		reps, best := filter(res.PerEvent[name])
		res.Representatives[name] = reps
		if best.Event != nil {
			res.Best[name] = best
		}
	}
	res.Timing.Filtering = time.Since(filterStart) //aegis:allow(detrand) wall-clock feeds Timing telemetry only, never simulation state
	// Campaign merge point: persist the grown screening memo and journal
	// the resume-skip funnel.
	if f.cfg.Store != nil {
		f.storeMemo()
		fStage.Record(0, flight.CodeStageFuzzerResume, flight.CodeNone,
			float64(len(events)-len(missIdx)), float64(len(missIdx)), 0)
	}
	fStage.Record(0, flight.CodeStageFuzzerCampaign, flight.CodeNone,
		float64(len(events)), float64(len(res.Skipped)), 0)
	telemetry.Log().Info("fuzzer: campaign done",
		telemetry.F("events", len(events)),
		telemetry.F("tried", res.CandidatesTried),
		telemetry.F("skipped", len(res.Skipped)),
		telemetry.F("confirmed_events", len(res.Best)))
	if len(errs) > 0 {
		return res, fmt.Errorf("fuzzer: %d of %d events skipped: %w",
			len(errs), len(events), errors.Join(errs...))
	}
	return res, nil
}

// CoverageEntry is one gadget of the minimal covering set with the events
// it perturbs.
type CoverageEntry struct {
	Finding Finding
	Covers  []string
}

// MinimalCover computes a small gadget set covering every event that has
// at least one confirmed gadget, using greedy set cover over the measured
// per-gadget event perturbations (paper §VII-C: 43 gadgets cover all 137
// vulnerable events). Coverage is measured mechanistically: each candidate
// gadget is executed once on a fresh bench and credited with every target
// event whose count it changes by at least minDelta.
func (f *Fuzzer) MinimalCover(res *Result, events []*hpc.Event) ([]CoverageEntry, error) {
	if res == nil || len(events) == 0 {
		return nil, ErrNoTargetEvents
	}
	defer hCoverSeconds.Start().Stop()
	// Candidate pool: all representatives, deduplicated by dense gadget
	// identity, visiting events in sorted-name order so the Finding that
	// wins a duplicated gadget is the same on every run — map order must
	// not pick the winner. (The pool order below still sorts by Key() —
	// the greedy cover's tie-breaks must stay byte-identical to the
	// string-keyed implementation.)
	repEvents := make([]string, 0, len(res.Representatives))
	for name := range res.Representatives {
		repEvents = append(repEvents, name)
	}
	sort.Strings(repEvents)
	var pool []Finding
	seen := make(map[gadgetID]bool)
	for _, name := range repEvents {
		for _, fd := range res.Representatives[name] {
			if !seen[fd.Gadget.id()] {
				seen[fd.Gadget.id()] = true
				pool = append(pool, fd)
			}
		}
	}
	sort.SliceStable(pool, func(i, j int) bool { return pool[i].Gadget.Key() < pool[j].Gadget.Key() })

	// Measure coverage of each candidate over all events: the gadget's
	// cold+warm noise-free signature (usually already in the screening
	// memo) evaluated under every event formula. Shards are pure, so the
	// fan-out preserves the serial coverage matrix exactly.
	workers := parallel.NewPool("fuzzer.cover", f.cfg.Parallelism)
	coverage, err := parallel.Map(context.Background(), workers, len(pool),
		func(_ context.Context, i int) ([]int, error) {
			ops := pool[i].Gadget.ops()
			sig, err := f.signature(pool[i].Gadget, ops[:])
			if err != nil {
				return nil, err
			}
			var covers []int
			for ei, e := range events {
				if e.Value(sig.total) >= minDelta {
					covers = append(covers, ei)
				}
			}
			return covers, nil
		})
	if err != nil {
		return nil, err
	}

	// Greedy cover.
	uncovered := make(map[int]bool, len(events))
	coverable := make(map[int]bool)
	for _, cov := range coverage {
		for _, ei := range cov {
			coverable[ei] = true
			uncovered[ei] = true
		}
	}
	var out []CoverageEntry
	for len(uncovered) > 0 {
		bestIdx, bestGain := -1, 0
		for i, cov := range coverage {
			gain := 0
			for _, ei := range cov {
				if uncovered[ei] {
					gain++
				}
			}
			if gain > bestGain {
				bestGain = gain
				bestIdx = i
			}
		}
		if bestIdx < 0 {
			break
		}
		entry := CoverageEntry{Finding: pool[bestIdx]}
		for _, ei := range coverage[bestIdx] {
			if uncovered[ei] {
				entry.Covers = append(entry.Covers, events[ei].Name)
				delete(uncovered, ei)
			}
		}
		out = append(out, entry)
	}
	fStage.Record(0, flight.CodeStageFuzzerCover, flight.CodeNone,
		float64(len(out)), float64(len(coverable)), 0)
	return out, nil
}

// StackSegment concatenates the covering gadgets into the single noise code
// segment the obfuscator executes repeatedly (paper §VII-C).
func StackSegment(cover []CoverageEntry) []isa.Variant {
	var seg []isa.Variant
	for _, c := range cover {
		seg = append(seg, c.Finding.Gadget.Sequence()...)
	}
	return seg
}
