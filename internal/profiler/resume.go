// Code in this file is the profiler's artifact-store integration: the
// fingerprint derivations, the load/store adapters for the three profile
// artifact kinds, and the resume-skip funnel instrumentation. Campaign
// resume never changes a result: artifacts hold exact float64 bit
// patterns of values that are pure functions of their fingerprinted
// inputs, so a loaded shard is byte-identical to a recomputed one
// (pinned by TestRankResumeByteIdentical).
package profiler

import (
	"strconv"

	"github.com/repro/aegis/internal/artifact"
	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/microarch"
	"github.com/repro/aegis/internal/sev"
	"github.com/repro/aegis/internal/stats"
	"github.com/repro/aegis/internal/telemetry"
	"github.com/repro/aegis/internal/workload"
)

// Profile artifact kinds. Granularity follows the recompute units of
// incremental re-profiling: warm-up is one verdict bitmap per (app,
// config), traces are one matrix per (app, secret), scores are one cell
// per (event, trace-matrix) — so a catalog delta hits every trace
// artifact and re-scores only the new events, and a workload delta
// invalidates exactly the touched (event, secret) cells.
const (
	kindWarmup = "profile-warmup"
	kindTrace  = "profile-trace"
	kindScore  = "profile-score"
)

// Resume-skip funnel: per-stage hit/miss counters for artifact-backed
// campaign shards.
var (
	mResumeWarmupHit  = resumeCounter("warmup", "hit")
	mResumeWarmupMiss = resumeCounter("warmup", "miss")
	mResumeTraceHit   = resumeCounter("trace", "hit")
	mResumeTraceMiss  = resumeCounter("trace", "miss")
	mResumeScoreHit   = resumeCounter("score", "hit")
	mResumeScoreMiss  = resumeCounter("score", "miss")
)

func resumeCounter(stage, outcome string) *telemetry.Counter {
	return telemetry.C("profiler_resume_shards_total",
		telemetry.L("stage", stage), telemetry.L("outcome", outcome))
}

// worldFP mixes the template-server world configuration, the AMD default
// testbed, into a fingerprint: it shapes every collected trace.
func (p *Profiler) worldFP(f *artifact.Fingerprint) {
	w := sev.DefaultConfig(p.cfg.Seed)
	f.String("world.processor", w.Processor)
	f.Int("world.cores", w.PhysicalCores).Int("world.budget", w.TickBudget)
	f.Bool("world.shared-l2", w.SharedL2).Uint64("world.seed", w.Seed)
	f.Core(w.Core)
}

// catalogFP hashes the full event catalog once per Profiler.
func (p *Profiler) catalogFP() string {
	p.catOnce.Do(func() {
		f := artifact.NewFingerprint("catalog")
		f.String("processor", p.catalog.Processor).Int("size", p.catalog.Size())
		for _, e := range p.catalog.Events {
			f.Event(e)
		}
		p.catFP = f.Sum()
	})
	return p.catFP
}

// warmupFP addresses the warm-up verdict bitmap for an application. The
// threshold constant is hashed under a fixed key, so a store's addresses
// move only when its value does (pinned by TestArtifactFingerprintsPinned).
func (p *Profiler) warmupFP(app workload.App) string {
	f := artifact.NewFingerprint(kindWarmup)
	f.Uint64("seed", p.cfg.Seed).String("app", app.Name())
	f.Int("warmup-ticks", p.cfg.WarmupTicks).Int("warmup-repeats", p.cfg.WarmupRepeats)
	f.Float("warmup-threshold", warmupThreshold)
	f.String("catalog", p.catalogFP())
	for _, s := range app.Secrets() {
		f.String("secret", s)
	}
	p.worldFP(f)
	return f.Sum()
}

// traceFP addresses one secret's leakage-trace matrix. It deliberately
// excludes the catalog: raw traces are core-signal deltas, valid for any
// event formula evaluated on them later.
func (p *Profiler) traceFP(app workload.App, secret string) string {
	f := artifact.NewFingerprint(kindTrace)
	f.Uint64("seed", p.cfg.Seed).String("app", app.Name()).String("secret", secret)
	f.Int("repeats", p.cfg.RankRepeats).Int("ticks", p.cfg.TraceTicks)
	f.Int("signals", microarch.NumSignals)
	p.worldFP(f)
	return f.Sum()
}

// tracesFP combines the ordered per-secret trace fingerprints into the
// score artifacts' upstream address: a score is stale exactly when any
// trace feeding it changed.
func (p *Profiler) tracesFP(app workload.App, secrets []string) string {
	f := artifact.NewFingerprint("profile-traces")
	for _, s := range secrets {
		f.String("trace", p.traceFP(app, s))
	}
	return f.Sum()
}

// scoreFP addresses one (event, trace-matrix) score cell.
func (p *Profiler) scoreFP(e *hpc.Event, tracesFP string) string {
	f := artifact.NewFingerprint(kindScore)
	f.String("traces", tracesFP)
	f.Int("quadrature", p.cfg.QuadratureSteps).Bool("raw-mean", p.cfg.RawMeanFeature)
	f.Event(e)
	return f.Sum()
}

// ArtifactUniverse returns every artifact fingerprint this profiler
// configuration would consult when profiling app, mapped to a
// human-readable label. Inspection tools (aegisctl -artifacts) diff a
// store's entries against this set to call them current or stale under
// the present configuration.
func (p *Profiler) ArtifactUniverse(app workload.App) map[string]string {
	secrets := app.Secrets()
	out := make(map[string]string, 1+len(secrets)+p.catalog.Size())
	out[p.warmupFP(app)] = kindWarmup + " " + app.Name()
	for _, s := range secrets {
		out[p.traceFP(app, s)] = kindTrace + " " + app.Name() + "/" + s
	}
	combined := p.tracesFP(app, secrets)
	for _, e := range p.catalog.Events {
		out[p.scoreFP(e, combined)] = kindScore + " " + e.Name
	}
	return out
}

// loadWarmup restores a cached warm-up result, rebuilding Remaining in
// catalog order from the verdict bitmap.
func (p *Profiler) loadWarmup(app workload.App) (*WarmupResult, bool) {
	a, ok := p.cfg.Store.Get(kindWarmup, p.warmupFP(app))
	if !ok {
		return nil, false
	}
	changed := a.Section("changed")
	if len(changed) != p.catalog.Size() {
		return nil, false
	}
	res := &WarmupResult{
		TotalEvents:      p.catalog.Size(),
		RemainingPerType: make(map[hpc.EventType]int),
	}
	for i, e := range p.catalog.Events {
		if changed[i] != 0 {
			res.Remaining = append(res.Remaining, e)
			res.RemainingPerType[e.Type]++
		}
	}
	return res, true
}

// storeWarmup checkpoints the warm-up verdict bitmap.
func (p *Profiler) storeWarmup(app workload.App, changed []bool) {
	a := artifact.New(kindWarmup, p.warmupFP(app))
	a.SetMeta("app", app.Name())
	bits := make([]float64, len(changed))
	for i, c := range changed {
		if c {
			bits[i] = 1
		}
	}
	a.AddSection("changed", bits)
	p.putArtifact(a)
}

// loadTraces restores one secret's trace matrix as repeat-major row views
// into the loaded slab. Float64 slabs round-trip bit-exactly, so scoring
// a loaded matrix equals scoring the collected one.
func (p *Profiler) loadTraces(app workload.App, secret string) ([][][]float64, bool) {
	a, ok := p.cfg.Store.Get(kindTrace, p.traceFP(app, secret))
	if !ok {
		return nil, false
	}
	reps, ticks, signals := p.cfg.RankRepeats, p.cfg.TraceTicks, microarch.NumSignals
	slab := a.Section("slab")
	if len(slab) != reps*ticks*signals {
		return nil, false
	}
	traces := make([][][]float64, reps)
	for rep := 0; rep < reps; rep++ {
		trace := make([][]float64, ticks)
		base := rep * ticks * signals
		for t := 0; t < ticks; t++ {
			off := base + t*signals
			trace[t] = slab[off : off+signals : off+signals]
		}
		traces[rep] = trace
	}
	return traces, true
}

// storeTraces checkpoints one secret's trace matrix as a single slab.
func (p *Profiler) storeTraces(app workload.App, secret string, traces [][][]float64) {
	a := artifact.New(kindTrace, p.traceFP(app, secret))
	a.SetMeta("app", app.Name())
	a.SetMeta("secret", secret)
	a.SetMeta("repeats", strconv.Itoa(len(traces)))
	buf := make([]float64, 0, p.cfg.RankRepeats*p.cfg.TraceTicks*microarch.NumSignals)
	for _, trace := range traces {
		for _, row := range trace {
			buf = append(buf, row...)
		}
	}
	a.AddSection("slab", buf)
	p.putArtifact(a)
}

// loadScore restores one event's score cell: MI plus the fitted
// per-secret class models, or the cached "degenerate, unrankable"
// verdict.
func (p *Profiler) loadScore(e *hpc.Event, fp string, secrets []string) (re *RankedEvent, ok bool) {
	a, ok := p.cfg.Store.Get(kindScore, fp)
	if !ok {
		return nil, false
	}
	if a.Meta["degenerate"] == "1" {
		return nil, true
	}
	mi := a.Section("mi")
	classes := a.Section("classes")
	if len(mi) != 1 || len(classes) != 3*len(secrets) {
		return nil, false
	}
	out := &RankedEvent{Event: e, MI: mi[0], Classes: make([]stats.ClassModel, len(secrets))}
	for i, s := range secrets {
		out.Classes[i] = stats.ClassModel{
			Secret: s,
			Prior:  classes[3*i],
			Dist:   stats.Gaussian{Mu: classes[3*i+1], Sigma: classes[3*i+2]},
		}
	}
	return out, true
}

// storeScore checkpoints one event's score cell (nil = degenerate).
func (p *Profiler) storeScore(e *hpc.Event, fp string, re *RankedEvent) {
	a := artifact.New(kindScore, fp)
	a.SetMeta("event", e.Name)
	if re == nil {
		a.SetMeta("degenerate", "1")
		p.putArtifact(a)
		return
	}
	a.AddSection("mi", []float64{re.MI})
	classes := make([]float64, 0, 3*len(re.Classes))
	for _, c := range re.Classes {
		classes = append(classes, c.Prior, c.Dist.Mu, c.Dist.Sigma)
	}
	a.AddSection("classes", classes)
	p.putArtifact(a)
}

// putArtifact writes a checkpoint; a failed write degrades resume, never
// the campaign, so it is logged and dropped.
func (p *Profiler) putArtifact(a *artifact.Artifact) {
	if err := p.cfg.Store.Put(a); err != nil {
		telemetry.Log().Warn("profiler: artifact checkpoint failed",
			telemetry.F("kind", a.Kind), telemetry.F("error", err.Error()))
	}
}
