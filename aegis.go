// Package aegis is the public facade of the Aegis framework, a defense
// that protects confidential VMs (AMD SEV guests) against hardware
// performance counter (HPC) side channels, reproducing "Protecting
// Confidential Virtual Machines from Hardware Performance Counter Side
// Channels" (DSN 2024).
//
// Aegis runs in three stages:
//
//  1. Profile — run the protected application with its secrets in a
//     template VM, rank the processor's HPC events by the mutual
//     information they leak about the secrets (Application Profiler, §V).
//  2. Fuzz — search instruction gadgets (reset+trigger pairs) that
//     perturb each vulnerable event, confirm them, and reduce them to a
//     minimal covering set (Event Fuzzer, §VI).
//  3. Protect — deploy an in-VM obfuscator that injects the stacked
//     gadget segment with a differential-privacy-calibrated repetition
//     count per tick (Event Obfuscator, §VII), pinned to the same vCPU as
//     the protected application.
//
// The package orchestrates the internal subsystems: a micro-architecture
// simulator, an HPC/PMU model, an SEV host/guest world, generative
// workloads, and from-scratch ML attack models used for evaluation.
//
// A minimal deployment:
//
//	fw, _ := aegis.New(aegis.Config{Seed: 1})
//	app := &workload.WebsiteApp{}
//	profile, _ := fw.Profile(app)
//	gadgets, _ := fw.Fuzz(profile.Top(4))
//	guest, _ := sev.NewGuest(sev.GuestConfig{World: sev.DefaultConfig(1), App: runner})
//	obf, _ := fw.Protect(guest.VM, 0, gadgets, aegis.MechanismLaplace, 1.0)
package aegis

import (
	"errors"
	"fmt"
	"strings"

	"github.com/repro/aegis/internal/artifact"
	"github.com/repro/aegis/internal/faultinject"
	"github.com/repro/aegis/internal/fuzzer"
	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/obfuscator"
	"github.com/repro/aegis/internal/ops"
	"github.com/repro/aegis/internal/profiler"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/sev"
	"github.com/repro/aegis/internal/telemetry"
	"github.com/repro/aegis/internal/workload"
)

// Facade metrics: pipeline-stage counters plus the multi-event skip
// signal of ProtectMulti.
var (
	mProfileRuns      = telemetry.C("aegis_profile_runs_total")
	mFuzzRuns         = telemetry.C("aegis_fuzz_runs_total")
	mProtectDeploys   = telemetry.C("aegis_protect_deploys_total")
	mMultiDeploys     = telemetry.C("aegis_protect_multi_deploys_total")
	mMultiSkipped     = telemetry.C("aegis_protect_multi_skipped_events_total")
	gProfileRanked    = telemetry.G("aegis_profile_events_ranked")
	gProfileRemaining = telemetry.G("aegis_profile_warmup_remaining")
	gFuzzCoverSize    = telemetry.G("aegis_fuzz_cover_size")
	gFuzzSegmentLen   = telemetry.G("aegis_fuzz_segment_len")

	stageProfile      = telemetry.Stage("aegis.profile")
	stageFuzz         = telemetry.Stage("aegis.fuzz")
	stageProtect      = telemetry.Stage("aegis.protect")
	stageProtectMulti = telemetry.Stage("aegis.protect_multi")
)

// Mechanism names accepted by NewDefense/Protect.
const (
	MechanismLaplace  = obfuscator.MechanismLaplace
	MechanismDStar    = obfuscator.MechanismDStar
	MechanismRandom   = obfuscator.MechanismRandom   // §IX-A baseline, no privacy guarantee
	MechanismConstant = obfuscator.MechanismConstant // §IX-A baseline, pad to a constant
)

// Errors returned by the facade.
var (
	ErrUnknownMechanism = errors.New("aegis: unknown mechanism")
	ErrNoGadgets        = errors.New("aegis: gadget set is empty")
	ErrUnknownEvent     = errors.New("aegis: event not in catalog")
)

// Config tunes the framework. The zero value selects the AMD EPYC 7252
// evaluation platform with moderate offline-analysis budgets.
type Config struct {
	// Processor selects the event catalog; empty means "AMD EPYC 7252".
	Processor string
	// Seed drives all stochastic behaviour; identical seeds reproduce
	// identical pipelines.
	Seed uint64
	// ProfileTraceTicks is the leakage-trace length for ranking.
	ProfileTraceTicks int
	// ProfileRepeats is the measurements per secret.
	ProfileRepeats int
	// FuzzCandidates is the gadget candidates sampled per event.
	FuzzCandidates int
	// Parallelism bounds the worker pools of the offline pipelines
	// (profiling and fuzzing); <= 0 means GOMAXPROCS. Results are
	// byte-identical at any value — only wall-clock time changes.
	Parallelism int
	// ArtifactDir, when non-empty, backs the offline pipelines with a
	// versioned artifact store rooted at this directory: profiling and
	// fuzzing checkpoint their shards there and resume matching ones on
	// restart. Resume never changes results — a warm run is byte-identical
	// to a cold one, only faster.
	ArtifactDir string
	// Faults injects deterministic substrate faults (PMU read errors,
	// counter saturation, preemption bursts, mid-gadget interrupts, draw
	// extremes) into the fuzzer, the SEV world and the deployed
	// obfuscators. The zero value is the healthy substrate.
	Faults faultinject.Config
	// Ops configures the unified operations surface (/healthz, /readyz,
	// /metrics, /debug/pprof, /flight, /snapshot). With an empty
	// Ops.Addr no server is started; otherwise New starts it and
	// readiness opens once the first defense is deployed.
	Ops ops.Config
}

// Framework is a configured Aegis instance.
type Framework struct {
	cfg     Config
	catalog *hpc.Catalog
	legal   []isa.Variant
	faults  *faultinject.Injector
	store   *artifact.Store

	// Ops surface (nil server when Config.Ops.Addr is empty). warmGate
	// holds /readyz at 503 until the first Protect/ProtectMulti deploy.
	opsSrv   *ops.Server
	warmGate *ops.Gate
}

// New builds a framework for the configured processor.
func New(cfg Config) (*Framework, error) {
	if cfg.Processor == "" {
		cfg.Processor = "AMD EPYC 7252"
	}
	if cfg.ProfileTraceTicks <= 0 {
		cfg.ProfileTraceTicks = 120
	}
	if cfg.ProfileRepeats <= 0 {
		cfg.ProfileRepeats = 8
	}
	if cfg.FuzzCandidates <= 0 {
		cfg.FuzzCandidates = 600
	}
	catalog, err := hpc.CatalogByProcessor(cfg.Processor, 1)
	if err != nil {
		return nil, err
	}
	// The ISA specification follows the catalog's vendor.
	var clean isa.CleanupResult
	if catalog.Family == "intel-e5" {
		clean = isa.Cleanup(isa.SpecIntelXeonE5(1), isa.IntelXeonE5Features())
	} else {
		clean = isa.Cleanup(isa.SpecAMDEpyc(1), isa.AMDEpycFeatures())
	}
	telemetry.G("aegis_config_fuzz_candidates").Set(float64(cfg.FuzzCandidates))
	telemetry.G("aegis_config_profile_trace_ticks").Set(float64(cfg.ProfileTraceTicks))
	telemetry.G("aegis_config_profile_repeats").Set(float64(cfg.ProfileRepeats))
	telemetry.G("aegis_config_clip_bound").Set(obfuscator.DefaultClipBound)
	telemetry.G("aegis_config_sensitivity").Set(obfuscator.DefaultSensitivity)
	telemetry.G("aegis_catalog_events").Set(float64(catalog.Size()))
	telemetry.G("aegis_legal_instructions").Set(float64(len(clean.Legal)))
	f := &Framework{
		cfg:      cfg,
		catalog:  catalog,
		legal:    clean.Legal,
		faults:   faultinject.New(cfg.Faults),
		warmGate: ops.NewGate("plan-warmup"),
	}
	if cfg.ArtifactDir != "" {
		store, err := artifact.Open(cfg.ArtifactDir)
		if err != nil {
			return nil, fmt.Errorf("open artifact store: %w", err)
		}
		f.store = store
	}
	if cfg.Ops.Addr != "" {
		opsCfg := cfg.Ops
		if opsCfg.Budget == nil {
			opsCfg.Budget = ops.NewTelemetryBudget(opsCfg.Registry)
		}
		f.opsSrv = ops.NewServer(opsCfg)
		f.opsSrv.RegisterReadiness(f.warmGate.Probe())
		f.opsSrv.RegisterHealth(ops.Probe{Name: "catalog", Check: func() ops.ProbeResult {
			return ops.OK(fmt.Sprintf("%s: %d events", cfg.Processor, catalog.Size()))
		}})
		if _, err := f.opsSrv.Start(); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// OpsServer returns the running ops server, or nil when Config.Ops.Addr
// was empty. Callers register component probes on it (aegisctl adds
// hpc/sev/obfuscator probes around its pipeline).
func (f *Framework) OpsServer() *ops.Server { return f.opsSrv }

// Close stops the ops server (if any). The framework itself holds no
// other resources.
func (f *Framework) Close() error {
	if f.opsSrv == nil {
		return nil
	}
	return f.opsSrv.Close()
}

// Catalog returns the processor's HPC event catalog.
func (f *Framework) Catalog() *hpc.Catalog { return f.catalog }

// FaultInjector returns the framework's fault injector, or nil when the
// substrate is healthy. Attach it to an sev.World with World.SetFaults to
// expose deployed defenses to preemption and mid-gadget interrupts.
func (f *Framework) FaultInjector() *faultinject.Injector { return f.faults }

// LegalInstructions returns the number of instruction variants that
// survive ISA cleanup on this processor.
func (f *Framework) LegalInstructions() int { return len(f.legal) }

// Profile is the result of the Application Profiler stage.
type Profile struct {
	// TotalEvents is the catalog size M.
	TotalEvents int
	// WarmupRemaining is N, the events responding to the application.
	WarmupRemaining int
	// Ranked lists the surviving events by descending mutual information.
	Ranked []profiler.RankedEvent
}

// Top returns the names of the n most vulnerable events; n is clamped to
// [0, len(Ranked)].
func (p *Profile) Top(n int) []string {
	if n < 0 {
		n = 0
	}
	if n > len(p.Ranked) {
		n = len(p.Ranked)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = p.Ranked[i].Event.Name
	}
	return out
}

// profilerConfig and fuzzerConfig are the pipeline configurations of
// every facade stage: Profile and Fuzz run with them, and
// ArtifactInventory fingerprints them.
func (f *Framework) profilerConfig() profiler.Config {
	cfg := profiler.DefaultConfig(f.cfg.Seed)
	cfg.TraceTicks = f.cfg.ProfileTraceTicks
	cfg.RankRepeats = f.cfg.ProfileRepeats
	cfg.Parallelism = f.cfg.Parallelism
	cfg.Store = f.store
	return cfg
}

func (f *Framework) fuzzerConfig() fuzzer.Config {
	cfg := fuzzer.DefaultConfig(f.cfg.Seed)
	cfg.CandidatesPerEvent = f.cfg.FuzzCandidates
	cfg.Parallelism = f.cfg.Parallelism
	cfg.Faults = f.cfg.Faults
	cfg.Store = f.store
	return cfg
}

// Profile runs warm-up profiling and event ranking for the application.
func (f *Framework) Profile(app workload.App) (*Profile, error) {
	defer stageProfile.Start().Stop()
	mProfileRuns.Inc()
	res, err := profiler.New(f.catalog, f.profilerConfig()).Profile(app)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", app.Name(), err)
	}
	gProfileRemaining.Set(float64(len(res.Warmup.Remaining)))
	gProfileRanked.Set(float64(len(res.Ranked)))
	return &Profile{
		TotalEvents:     res.Warmup.TotalEvents,
		WarmupRemaining: len(res.Warmup.Remaining),
		Ranked:          res.Ranked,
	}, nil
}

// ArtifactInventory returns every artifact fingerprint the framework's
// current configuration would consult when profiling app and fuzzing any
// of the catalog's events, mapped to human-readable labels. Inspection
// tools (aegisctl -artifacts) diff a store's entries against this set:
// an entry whose fingerprint is absent can never be loaded by this
// configuration — it is stale, left over from other flags.
func (f *Framework) ArtifactInventory(app workload.App) (map[string]string, error) {
	out := profiler.New(f.catalog, f.profilerConfig()).ArtifactUniverse(app)
	fz, err := fuzzer.New(f.legal, f.fuzzerConfig())
	if err != nil {
		return nil, err
	}
	for fp, label := range fz.ArtifactUniverse(f.catalog.Events) {
		out[fp] = label
	}
	return out, nil
}

// GadgetSet is the result of the Event Fuzzer stage: a minimal covering
// set of confirmed gadgets stacked into one injectable code segment.
type GadgetSet struct {
	// Events are the protected event names.
	Events []string
	// CoverSize is the number of gadgets in the minimal cover.
	CoverSize int
	// SegmentLen is the stacked segment's instruction count.
	SegmentLen int
	// GadgetsTried is the number of candidate gadgets sampled
	// (fuzzer.Result.CandidatesTried).
	GadgetsTried int

	segment  []isa.Variant
	refEvent *hpc.Event
	// perEventBest maps each protected event to its strongest confirmed
	// gadget sequence, used by multi-event deployments.
	perEventBest map[string][]isa.Variant
}

// Fuzz searches and confirms gadgets for the named events and reduces
// them to a minimal cover.
func (f *Framework) Fuzz(eventNames []string) (*GadgetSet, error) {
	if len(eventNames) == 0 {
		return nil, fuzzer.ErrNoTargetEvents
	}
	defer stageFuzz.Start().Stop()
	mFuzzRuns.Inc()
	events := make([]*hpc.Event, 0, len(eventNames))
	for _, n := range eventNames {
		e, ok := f.catalog.ByName(n)
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownEvent, n)
		}
		events = append(events, e)
	}
	fz, err := fuzzer.New(f.legal, f.fuzzerConfig())
	if err != nil {
		return nil, err
	}
	// A partial campaign (some events skipped, findings for the rest) is
	// still deployable — mirror ProtectMulti and continue with what
	// succeeded; fail only when the fuzzer had nothing to report.
	res, err := fz.Fuzz(events)
	if err != nil && res == nil {
		return nil, err
	}
	cover, err := fz.MinimalCover(res, events)
	if err != nil {
		return nil, err
	}
	segment := fuzzer.StackSegment(cover)
	if len(segment) == 0 {
		return nil, ErrNoGadgets
	}
	gFuzzCoverSize.Set(float64(len(cover)))
	gFuzzSegmentLen.Set(float64(len(segment)))
	ref := events[0]
	perEvent := make(map[string][]isa.Variant, len(eventNames))
	for name, best := range res.Best {
		perEvent[name] = best.Gadget.Sequence()
	}
	return &GadgetSet{
		Events:       eventNames,
		CoverSize:    len(cover),
		SegmentLen:   len(segment),
		GadgetsTried: res.CandidatesTried,
		segment:      segment,
		refEvent:     ref,
		perEventBest: perEvent,
	}, nil
}

// Segment returns the stacked injectable code segment — the shared
// protection plan handed to daemon.Config for multi-tenant deployments.
func (gs *GadgetSet) Segment() []isa.Variant { return gs.segment }

// RefEvent returns the reference HPC event the plan was fuzzed against.
func (gs *GadgetSet) RefEvent() *hpc.Event { return gs.refEvent }

// DefenseFactory builds fresh obfuscator instances (one per deployment).
type DefenseFactory = obfuscator.Factory

// NewDefense returns a factory producing obfuscators for the gadget set
// under the named mechanism. For the DP mechanisms param is ε; for the
// baselines it is the noise bound / padding peak.
func (f *Framework) NewDefense(gs *GadgetSet, mechanism string, param float64) (DefenseFactory, error) {
	if gs == nil || len(gs.segment) == 0 {
		return nil, ErrNoGadgets
	}
	if !obfuscator.KnownMechanism(mechanism) {
		return nil, fmt.Errorf("%w: %q", ErrUnknownMechanism, mechanism)
	}
	recipe := obfuscator.Recipe{
		Segment:     gs.segment,
		RefEvent:    gs.refEvent,
		ClipBound:   obfuscator.DefaultClipBound,
		Sensitivity: obfuscator.DefaultSensitivity,
	}
	return recipe.Factory(mechanism, param, param, "aegis-defense", f.cfg.Faults), nil
}

// MultiResult is the outcome of a multi-event deployment: the deployed
// obfuscator plus the events that could not be protected.
type MultiResult struct {
	// Multi is the deployed obfuscator, one plan per protected event.
	Multi *obfuscator.Obfuscator
	// ProtectedEvents are the events that received their own d* plan.
	ProtectedEvents []string
	// SkippedEvents are the requested events with no confirmed gadget;
	// they remain UNPROTECTED and callers should surface them.
	SkippedEvents []string
}

// ProtectMulti deploys the multi-event reinforcement the paper recommends
// the d* mechanism for (§VII-B): each protected event gets its own d*
// recursion and its own strongest gadget sequence, all in the defense
// slot of the application's vCPU. Events for which fuzzing confirmed no
// gadget are reported in the result's SkippedEvents (and counted in
// telemetry); if every requested event would be skipped, ProtectMulti
// fails instead of silently deploying nothing.
func (f *Framework) ProtectMulti(vm *sev.VM, vcpu int, gs *GadgetSet, epsilon float64) (*MultiResult, error) {
	if gs == nil || len(gs.perEventBest) == 0 {
		return nil, ErrNoGadgets
	}
	defer stageProtectMulti.Start().Stop()
	plans := make([]obfuscator.Plan, 0, len(gs.Events))
	result := &MultiResult{}
	for i, name := range gs.Events {
		seg, ok := gs.perEventBest[name]
		if !ok {
			// No confirmed gadget for this event: it stays unprotected.
			mMultiSkipped.Inc()
			telemetry.Log().Warn("protect-multi: event skipped, no confirmed gadget",
				telemetry.F("event", name))
			result.SkippedEvents = append(result.SkippedEvents, name)
			continue
		}
		ev, ok := f.catalog.ByName(name)
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownEvent, name)
		}
		mech, err := obfuscator.NewDStarMechanism(epsilon, obfuscator.DefaultSensitivity,
			rng.New(f.cfg.Seed).SplitN("multi-defense", i))
		if err != nil {
			return nil, err
		}
		plans = append(plans, obfuscator.Plan{
			Mechanism: mech,
			Segment:   seg,
			Event:     ev,
			ClipBound: obfuscator.DefaultClipBound,
		})
		result.ProtectedEvents = append(result.ProtectedEvents, name)
	}
	if len(plans) == 0 {
		return nil, fmt.Errorf("%w: no confirmed gadget for any requested event (skipped: %s)",
			ErrNoGadgets, strings.Join(result.SkippedEvents, ", "))
	}
	multi, err := obfuscator.NewMulti(plans, f.cfg.Seed^rng.HashString("multi-defense"), f.cfg.Faults)
	if err != nil {
		return nil, err
	}
	if err := vm.SetDefense(vcpu, multi); err != nil {
		return nil, err
	}
	mMultiDeploys.Inc()
	f.warmGate.Open()
	result.Multi = multi
	return result, nil
}

// Protect deploys an obfuscator into the defense slot of the given vCPU —
// the same vCPU the protected application runs on, so the hypervisor
// cannot schedule them apart (§VII-C). A defense already in the slot is
// replaced.
func (f *Framework) Protect(vm *sev.VM, vcpu int, gs *GadgetSet, mechanism string, param float64) (*obfuscator.Obfuscator, error) {
	defer stageProtect.Start().Stop()
	factory, err := f.NewDefense(gs, mechanism, param)
	if err != nil {
		return nil, err
	}
	obf, err := factory(f.cfg.Seed ^ rng.HashString(mechanism))
	if err != nil {
		return nil, err
	}
	if err := vm.SetDefense(vcpu, obf); err != nil {
		return nil, err
	}
	mProtectDeploys.Inc()
	f.warmGate.Open()
	return obf, nil
}
