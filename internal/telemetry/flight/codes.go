// Code in this file is the flight-record taxonomy: every Code value a
// recording site may journal, grouped by the Kind it belongs to. Like
// telemetry/names.go for metric names, this is the single reviewed file
// that pins the wire vocabulary of the "aegis-flight/v1" JSONL schema —
// adding an outcome, degradation reason, fault class or stage is a
// deliberate, diffable change here, never an ad-hoc literal at a call
// site. Wire names mirror the exporting package's own stable enums
// (obfuscator.DegradeReason, faultinject.Kind.String) so a grep for a
// Prometheus label value finds the same spelling in a flight dump.

package flight

// Code identifies what happened within a record's kind. The zero value
// CodeNone means "no sub-classification".
type Code uint8

// Registered record codes.
const (
	CodeNone Code = iota

	// KindObfuscatorTick outcomes (healthy ticks).
	CodeTickInjected
	CodeTickZeroDraw
	CodeTickNoInjection

	// KindObfuscatorTick degradation reasons (incident ticks), one per
	// obfuscator.DegradeReason. A multi-plan obfuscator journals one
	// record per (plan, tick), so a degraded plan carries its own reason.
	CodeDegradedKmodAttach
	CodeDegradedPMURead
	CodeDegradedCounterRearm
	CodeDegradedDStarClipFallback
	CodeDegradedRetryExhausted
	CodeDegradedExecError

	// KindObfuscatorTick sub-codes: the noise mechanism that drove the
	// tick.
	CodeMechLaplace
	CodeMechDStar
	CodeMechRandom
	CodeMechConstant
	CodeMechOther

	// KindFault codes, one per faultinject.Kind.
	CodeFaultPMURead
	CodeFaultCounterSaturation
	CodeFaultPreemption
	CodeFaultGadgetInterrupt
	CodeFaultDrawExtreme

	// KindPMU counter lifecycle codes.
	CodePMUSaturated
	CodePMURearmed

	// KindWorldStep codes.
	CodeWorldSummary

	// KindStage completion codes. The resume codes journal the
	// artifact-store skip funnel of a resumed campaign (a = shards served
	// from the store, b = shards recomputed), always from input-ordered
	// merge points so resumed journals stay replay-stable.
	CodeStageProfilerWarmup
	CodeStageProfilerRank
	CodeStageProfilerResume
	CodeStageFuzzerEvent
	CodeStageFuzzerCover
	CodeStageFuzzerCampaign
	CodeStageFuzzerResume

	// KindDaemon codes: tenant lifecycle transitions (a = tenant id),
	// per-tenant shed/degradation/job-error incidents (b = event count,
	// sub = the degradation reason where one applies), config reload
	// outcomes and the per-tick daemon summary (a = live tenants, b =
	// items processed, c = items shed that tick).
	CodeTenantAttach
	CodeTenantDrain
	CodeTenantDetach
	CodeTenantReplan
	CodeTenantShed
	CodeTenantDegraded
	CodeDaemonReload
	CodeDaemonReloadReject
	CodeDaemonSummary
	CodeTenantJobError

	numCodes
)

// codeNames holds the stable wire names, indexed by Code.
var codeNames = [numCodes]string{
	CodeNone: "none",

	CodeTickInjected:    "injected",
	CodeTickZeroDraw:    "zero-draw",
	CodeTickNoInjection: "no-injection",

	CodeDegradedKmodAttach:        "degraded:kmod-attach",
	CodeDegradedPMURead:           "degraded:pmu-read",
	CodeDegradedCounterRearm:      "degraded:counter-rearm",
	CodeDegradedDStarClipFallback: "degraded:dstar-clip-fallback",
	CodeDegradedRetryExhausted:    "degraded:retry-exhausted",
	CodeDegradedExecError:         "degraded:exec-error",

	CodeMechLaplace:  "mech:laplace",
	CodeMechDStar:    "mech:dstar",
	CodeMechRandom:   "mech:random",
	CodeMechConstant: "mech:constant",
	CodeMechOther:    "mech:other",

	CodeFaultPMURead:           "fault:pmu-read",
	CodeFaultCounterSaturation: "fault:counter-saturation",
	CodeFaultPreemption:        "fault:vcpu-preemption",
	CodeFaultGadgetInterrupt:   "fault:gadget-interrupt",
	CodeFaultDrawExtreme:       "fault:draw-extreme",

	CodePMUSaturated: "pmu:saturated",
	CodePMURearmed:   "pmu:rearmed",

	CodeWorldSummary: "world:summary",

	CodeStageProfilerWarmup: "stage:profiler-warmup",
	CodeStageProfilerRank:   "stage:profiler-rank",
	CodeStageProfilerResume: "stage:profiler-resume",
	CodeStageFuzzerEvent:    "stage:fuzzer-event",
	CodeStageFuzzerCover:    "stage:fuzzer-cover",
	CodeStageFuzzerCampaign: "stage:fuzzer-campaign",
	CodeStageFuzzerResume:   "stage:fuzzer-resume",

	CodeTenantAttach:       "tenant:attach",
	CodeTenantDrain:        "tenant:drain",
	CodeTenantDetach:       "tenant:detach",
	CodeTenantReplan:       "tenant:replan",
	CodeTenantShed:         "tenant:shed",
	CodeTenantDegraded:     "tenant:degraded",
	CodeDaemonReload:       "daemon:reload",
	CodeDaemonReloadReject: "daemon:reload-reject",
	CodeDaemonSummary:      "daemon:summary",
	CodeTenantJobError:     "tenant:job-error",
}

// String returns the stable wire name of the code.
func (c Code) String() string {
	if c >= numCodes {
		return "unknown"
	}
	return codeNames[c]
}
