// Package profiler implements Aegis's Application Profiler (paper §V): the
// offline module that, given a protected application and its secrets,
// identifies which HPC events of the processor can act as side channels
// and ranks them by vulnerability.
//
// The profiler launches a template VM on a template server whose processor
// model matches the attested cloud server, runs the application per secret
// while monitoring HPC events, and proceeds in two stages:
//
//  1. Warm-up profiling: events whose counts do not differ between an idle
//     VM and the running application are removed — they cannot reflect the
//     application's behaviour. This shrinks thousands of events to ~10%.
//  2. Event ranking: per surviving event, leakage traces are reduced to a
//     scalar feature with PCA, modelled as per-secret Gaussians, and scored
//     by the mutual information between secret and feature (paper Eq. 1).
package profiler

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/repro/aegis/internal/artifact"
	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/parallel"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/sev"
	"github.com/repro/aegis/internal/stats"
	"github.com/repro/aegis/internal/telemetry"
	"github.com/repro/aegis/internal/telemetry/flight"
	"github.com/repro/aegis/internal/trace"
	"github.com/repro/aegis/internal/workload"
)

// Profiler metrics: warm-up filtering volume, MI-ranking timings and the
// warm-up, rank and scoring stage times.
var (
	mWarmupRuns      = telemetry.C("profiler_warmup_runs_total")
	mWarmupFiltered  = telemetry.C("profiler_warmup_filtered_total")
	mWarmupRemaining = telemetry.C("profiler_warmup_remaining_total")
	mRankDegenerate  = telemetry.C("profiler_rank_degenerate_total")
	mRankedEvents    = telemetry.C("profiler_ranked_events_total")
	hTraceSeconds    = telemetry.H("profiler_trace_collect_seconds", telemetry.DefBuckets)
	hMIScoreSeconds  = telemetry.H("profiler_mi_score_seconds",
		telemetry.ExpBuckets(1e-5, 10, 8))
	stageWarmup    = telemetry.Stage("profiler.warmup")
	stageRank      = telemetry.Stage("profiler.rank")
	stageRankScore = telemetry.Stage("profiler.rank.score")

	// fStage journals stage completions at stage boundaries only (never
	// from shard workers), keeping the journal replay-stable.
	fStage = flight.Get(flight.KindStage)
)

// Errors returned by the profiler.
var (
	ErrNoSecrets = errors.New("profiler: application has no secrets")
	ErrNoEvents  = errors.New("profiler: no events to rank")
)

// warmupThreshold is the minimum relative count change (above a small
// absolute floor) for an event to count as "changed" by the workload in
// the warm-up sweep (paper §V-B).
const warmupThreshold = 0.05

// Config tunes the profiling runs.
type Config struct {
	// WarmupTicks is the monitoring window of each warm-up measurement
	// (the paper monitors each event for 1 second).
	WarmupTicks int
	// WarmupRepeats is how often the idle/active comparison is repeated;
	// an event is kept if it differs in any repeat (paper: 5 repeats with
	// near-identical results).
	WarmupRepeats int
	// RankRepeats is the number of measurements per secret (paper: 100,
	// reducible to 10 for rough analysis).
	RankRepeats int
	// TraceTicks is the leakage-trace length used for ranking.
	TraceTicks int
	// QuadratureSteps controls the MI integration grid.
	QuadratureSteps int
	// RawMeanFeature replaces the PCA feature with the plain per-trace
	// sum. Only the PCA ablation uses this; the paper's design extracts
	// the feature with PCA (§V-B).
	RawMeanFeature bool
	// Seed drives all stochastic behaviour.
	Seed uint64
	// Parallelism bounds the worker count of trace collection and event
	// scoring; <= 0 uses GOMAXPROCS. Results are byte-identical at any
	// value: every shard derives its RNG stream from (Seed, secret,
	// repeat) or scores pure per-event statistics, and shard outputs
	// merge in input order.
	Parallelism int
	// Store, when set, checkpoints campaign shards (warm-up verdicts,
	// per-secret traces, per-event scores) as versioned artifacts at
	// input-ordered merge points and resumes from shards whose
	// fingerprint matches on restart. Resume is invisible to results:
	// loaded shards are byte-identical to recomputed ones.
	Store *artifact.Store
}

// DefaultConfig returns evaluation-scale defaults (scaled down ~10x from
// the paper's wall-clock settings; the simulator tick models 1 ms).
func DefaultConfig(seed uint64) Config {
	return Config{
		WarmupTicks:     100,
		WarmupRepeats:   5,
		RankRepeats:     10,
		TraceTicks:      150,
		QuadratureSteps: 600,
		Seed:            seed,
	}
}

// Profiler profiles applications against a processor's event catalog.
type Profiler struct {
	catalog *hpc.Catalog
	cfg     Config
	lib     *workload.Library
	root    *rng.Source
	// scorePool recycles per-worker scoring scratch (series slab, PCA/MI
	// arena) across the thousands of scoreEvent calls a ranking makes.
	// Pooling is safe because scoreEvent is pure: the scratch never
	// carries state between calls, only capacity.
	scorePool sync.Pool
	// catOnce/catFP cache the catalog fingerprint for artifact addressing.
	catOnce sync.Once
	catFP   string
}

// scoreScratch is one worker's reusable scoring buffers.
type scoreScratch struct {
	slab  []float64   // all per-trace series, back to back
	all   [][]float64 // row views into slab
	feats []float64
	st    stats.Scratch
}

// New builds a profiler for the catalog. cfg starts from DefaultConfig;
// New fills in nothing.
func New(catalog *hpc.Catalog, cfg Config) *Profiler {
	p := &Profiler{
		catalog: catalog,
		cfg:     cfg,
		lib:     workload.DefaultLibrary(cfg.Seed),
		root:    rng.New(cfg.Seed).Split("profiler"),
	}
	p.scorePool.New = func() any { return new(scoreScratch) }
	return p
}

// rawTrace collects per-tick raw signal deltas from the core backing the
// template VM's vCPU while the app runs the given jobs. Evaluating every
// event formula on the same raw trace is equivalent to the paper's scheme
// of repeating identical runs for each 4-event register group.
func (p *Profiler) rawTrace(app workload.App, secret string, ticks int, stream *rng.Source, idle bool) ([][]float64, error) {
	runner := workload.NewRunner(app.Name(), p.lib, stream.Split("runner"))
	if !idle {
		job, err := app.Job(secret, stream.Split("job"))
		if err != nil {
			return nil, err
		}
		runner.Enqueue(job)
	}
	g, err := sev.NewGuest(sev.GuestConfig{World: sev.DefaultConfig(p.cfg.Seed), VM: sev.VMConfig{VCPUs: 1, SEV: true}, App: runner})
	if err != nil {
		return nil, fmt.Errorf("launch template VM: %w", err)
	}
	return trace.Record(g.World, g.Core, ticks), nil
}

// sumVec sums raw per-tick vectors into one delta vector.
func sumVec(trace [][]float64) []float64 {
	if len(trace) == 0 {
		return nil
	}
	out := make([]float64, len(trace[0]))
	for _, row := range trace {
		for i, v := range row {
			out[i] += v
		}
	}
	return out
}

// WarmupResult reports the outcome of warm-up profiling.
type WarmupResult struct {
	// Remaining are the events that responded to the application.
	Remaining []*hpc.Event
	// TotalEvents is the catalog size M.
	TotalEvents int
	// RemainingPerType counts survivors per event type (paper Table II
	// bracket percentages).
	RemainingPerType map[hpc.EventType]int
}

// Warmup performs the warm-up profiling of paper §V-B: measure every event
// with the VM idle and with the application running (under a representative
// secret), repeated WarmupRepeats times; keep events whose counts change.
func (p *Profiler) Warmup(app workload.App) (*WarmupResult, error) {
	secrets := app.Secrets()
	if len(secrets) == 0 {
		return nil, ErrNoSecrets
	}
	defer stageWarmup.Start().Stop()
	mWarmupRuns.Inc()
	// Resume: a matching warm-up artifact replaces the whole fan-out. The
	// verdict bitmap is a pure function of the fingerprinted inputs, so the
	// restored result equals the recomputed one.
	if p.cfg.Store != nil {
		if res, ok := p.loadWarmup(app); ok {
			mResumeWarmupHit.Inc()
			fStage.Record(0, flight.CodeStageProfilerResume, flight.CodeStageProfilerWarmup, 1, 0, 0)
			return p.finishWarmup(app, res), nil
		}
		mResumeWarmupMiss.Inc()
	}
	res := &WarmupResult{
		TotalEvents:      p.catalog.Size(),
		RemainingPerType: make(map[hpc.EventType]int),
	}
	// Each repeat's idle and active measurements are independent shards:
	// they launch their own template VM and derive their RNG stream from
	// (Seed, repeat, phase), so the fan-out collects exactly the traces
	// the serial loop would. A repeat's "changed" verdicts are OR-ed into
	// the final set, which is commutative — merge order cannot matter.
	type warmShard struct {
		rep  int
		idle bool
	}
	shards := make([]warmShard, 0, 2*p.cfg.WarmupRepeats)
	for rep := 0; rep < p.cfg.WarmupRepeats; rep++ {
		shards = append(shards, warmShard{rep: rep, idle: true}, warmShard{rep: rep, idle: false})
	}
	pool := parallel.NewPool("profiler.warmup", p.cfg.Parallelism)
	sums, err := parallel.Map(context.Background(), pool, len(shards),
		func(_ context.Context, i int) ([]float64, error) {
			sh := shards[i]
			stream := p.root.SplitN("warmup", sh.rep)
			secret := secrets[sh.rep%len(secrets)]
			label := "active"
			if sh.idle {
				label = "idle"
			}
			trace, err := p.rawTrace(app, secret, p.cfg.WarmupTicks, stream.Split(label), sh.idle)
			if err != nil {
				return nil, err
			}
			return sumVec(trace), nil
		})
	if err != nil {
		return nil, err
	}
	changed := make([]bool, p.catalog.Size())
	for rep := 0; rep < p.cfg.WarmupRepeats; rep++ {
		idleSum, activeSum := sums[2*rep], sums[2*rep+1]
		for i, e := range p.catalog.Events {
			if changed[i] {
				continue
			}
			// Host-only events read host-side constructs; from the guest
			// workload's perspective they are flat. GuestVisible events
			// are evaluated on the measured raw deltas.
			iv := e.Value(idleSum)
			av := e.Value(activeSum)
			diff := math.Abs(av - iv)
			floor := 5.0
			if diff > floor && diff > warmupThreshold*(iv+1) {
				changed[i] = true
			}
		}
	}
	for i, e := range p.catalog.Events {
		if changed[i] {
			res.Remaining = append(res.Remaining, e)
			res.RemainingPerType[e.Type]++
		}
	}
	// Merge point: every shard has landed, so the verdict bitmap is final
	// and safe to checkpoint.
	if p.cfg.Store != nil {
		p.storeWarmup(app, changed)
		fStage.Record(0, flight.CodeStageProfilerResume, flight.CodeStageProfilerWarmup, 0, 1, 0)
	}
	return p.finishWarmup(app, res), nil
}

// finishWarmup records the result-volume metrics, stage journal entry and
// log line shared by the computed and resumed warm-up paths.
func (p *Profiler) finishWarmup(app workload.App, res *WarmupResult) *WarmupResult {
	mWarmupRemaining.Add(float64(len(res.Remaining)))
	mWarmupFiltered.Add(float64(res.TotalEvents - len(res.Remaining)))
	fStage.Record(0, flight.CodeStageProfilerWarmup, flight.CodeNone,
		float64(len(res.Remaining)), float64(res.TotalEvents-len(res.Remaining)), 0)
	telemetry.Log().Info("profiler: warm-up filtering done",
		telemetry.F("app", app.Name()),
		telemetry.F("total", res.TotalEvents),
		telemetry.F("remaining", len(res.Remaining)))
	return res
}

// RankedEvent is one event with its vulnerability score.
type RankedEvent struct {
	Event *hpc.Event
	// MI is the mutual information I(Y;X) in bits.
	MI float64
	// Classes holds the fitted per-secret Gaussians of the PCA feature.
	Classes []stats.ClassModel
}

// rawSet is the collected leakage-trace matrix of one secret.
type rawSet struct {
	secret string
	traces [][][]float64 // repeat -> tick -> signals
}

// scoreEvent reduces one event's traces to a PCA feature, fits per-secret
// Gaussians and scores the mutual information. It is a pure function of
// (event, raws) — no RNG, no shared mutable state — which is what lets
// Rank score events concurrently without changing any score. A nil return
// marks a degenerate, unrankable event.
func (p *Profiler) scoreEvent(e *hpc.Event, raws []rawSet) *RankedEvent {
	defer hMIScoreSeconds.Start().Stop()
	// All intermediates are staged in pooled per-worker scratch: the
	// series slab, the PCA fit and the MI grids only allocate until each
	// worker's buffers reach the campaign's trace shape.
	sc := p.scorePool.Get().(*scoreScratch)
	defer p.scorePool.Put(sc)

	// Build per-trace event time series, back to back in one slab.
	total := 0
	for si := range raws {
		for _, raw := range raws[si].traces {
			total += len(raw)
		}
	}
	if cap(sc.slab) < total {
		sc.slab = make([]float64, total)
	}
	sc.slab = sc.slab[:total]
	all := sc.all[:0]
	off := 0
	for si := range raws {
		for _, raw := range raws[si].traces {
			series := sc.slab[off : off+len(raw) : off+len(raw)]
			off += len(raw)
			for t, sig := range raw {
				series[t] = e.Value(sig)
			}
			all = append(all, series)
		}
	}
	sc.all = all
	// Feature extraction over the full trace population: the paper's
	// PCA first component, or the raw sum for the ablation.
	var pca *stats.PCA
	if !p.cfg.RawMeanFeature {
		var err error
		pca, err = sc.st.FitPCA(all, 1)
		if err != nil {
			mRankDegenerate.Inc()
			return nil // degenerate event; cannot be ranked
		}
	}
	// classes escapes in the returned RankedEvent, so it is the one
	// allocation this function keeps.
	classes := make([]stats.ClassModel, 0, len(raws))
	secStart := 0
	for si := range raws {
		secSeries := all[secStart : secStart+len(raws[si].traces)]
		secStart += len(raws[si].traces)
		feats := sc.feats[:0]
		for _, series := range secSeries {
			var f float64
			if pca != nil {
				var err error
				f, err = pca.FirstComponent(series)
				if err != nil {
					mRankDegenerate.Inc()
					return nil
				}
			} else {
				for _, v := range series {
					f += v
				}
			}
			feats = append(feats, f)
		}
		sc.feats = feats
		g, err := stats.FitGaussian(feats)
		if err != nil {
			mRankDegenerate.Inc()
			return nil
		}
		classes = append(classes, stats.ClassModel{Secret: raws[si].secret, Dist: g})
	}
	mi, err := sc.st.MutualInformation(classes, p.cfg.QuadratureSteps)
	if err != nil {
		mRankDegenerate.Inc()
		return nil
	}
	return &RankedEvent{Event: e, MI: mi, Classes: classes}
}

// Rank scores each event's vulnerability for the application and returns
// the events sorted by descending mutual information (paper §V-B "Event
// ranking").
func (p *Profiler) Rank(app workload.App, events []*hpc.Event) ([]RankedEvent, error) {
	secrets := app.Secrets()
	if len(secrets) == 0 {
		return nil, ErrNoSecrets
	}
	if len(events) == 0 {
		return nil, ErrNoEvents
	}
	defer stageRank.Start().Stop()

	// Collect raw traces once per (secret, repeat); every event formula is
	// evaluated on the same traces. The (secret, repeat) matrix fans out
	// across workers: each shard launches its own template VM and derives
	// its RNG stream from (Seed, secret, repeat) — the doc comment on
	// rng.Source forbids sharing a stream — and the shard outputs land in
	// (secret, repeat) order, so the matrix is identical to a serial
	// collection.
	collect := hTraceSeconds.Start()
	pool := parallel.NewPool("profiler.rank", p.cfg.Parallelism)
	reps := p.cfg.RankRepeats
	// Resume: restore whole per-secret trace matrices from the store and
	// collect only the missing secrets. A shard's RNG stream depends only
	// on (Seed, secret, repeat), never on which other shards run, so
	// skipping cached secrets leaves the recomputed ones bit-identical.
	raws := make([]rawSet, len(secrets))
	missing := make([]int, 0, len(secrets))
	for si, secret := range secrets {
		raws[si].secret = secret
		if p.cfg.Store != nil {
			if traces, ok := p.loadTraces(app, secret); ok {
				raws[si].traces = traces
				mResumeTraceHit.Inc()
				continue
			}
			mResumeTraceMiss.Inc()
		}
		missing = append(missing, si)
	}
	traceHits := len(secrets) - len(missing)
	flat, err := parallel.Map(context.Background(), pool, len(missing)*reps,
		func(_ context.Context, i int) ([][]float64, error) {
			secret := secrets[missing[i/reps]]
			stream := p.root.SplitN("rank/"+secret, i%reps)
			return p.rawTrace(app, secret, p.cfg.TraceTicks, stream, false)
		})
	if err != nil {
		return nil, err
	}
	for mi, si := range missing {
		raws[si].traces = flat[mi*reps : (mi+1)*reps]
	}
	// Merge point: all trace shards landed in (secret, repeat) order;
	// checkpoint the freshly collected matrices.
	if p.cfg.Store != nil {
		for _, si := range missing {
			p.storeTraces(app, secrets[si], raws[si].traces)
		}
	}
	collect.Stop()

	// Score the events concurrently: PCA + MI over the shared raw traces
	// is a pure per-event computation, so shards stay deterministic and
	// merge in input-event order (nil = degenerate, unrankable).
	score := stageRankScore.Start()
	// Resume: a score cell depends only on (event formula, trace matrix,
	// scoring config), all covered by its fingerprint; restore hits
	// (including cached degenerate verdicts) and score only the misses.
	scored := make([]*RankedEvent, len(events))
	var scoreFPs []string
	missIdx := make([]int, 0, len(events))
	if p.cfg.Store != nil {
		combined := p.tracesFP(app, secrets)
		scoreFPs = make([]string, len(events))
		for i, e := range events {
			scoreFPs[i] = p.scoreFP(e, combined)
			if re, ok := p.loadScore(e, scoreFPs[i], secrets); ok {
				scored[i] = re
				mResumeScoreHit.Inc()
				continue
			}
			mResumeScoreMiss.Inc()
			missIdx = append(missIdx, i)
		}
	} else {
		for i := range events {
			missIdx = append(missIdx, i)
		}
	}
	fresh, err := parallel.Map(context.Background(), pool, len(missIdx),
		func(_ context.Context, i int) (*RankedEvent, error) {
			return p.scoreEvent(events[missIdx[i]], raws), nil
		})
	if err != nil {
		return nil, err
	}
	// Merge point: fold freshly scored cells back in input-event order and
	// checkpoint them (nil persists as a degenerate verdict).
	for mi, i := range missIdx {
		scored[i] = fresh[mi]
		if p.cfg.Store != nil {
			p.storeScore(events[i], scoreFPs[i], fresh[mi])
		}
	}
	ranked := make([]RankedEvent, 0, len(events))
	for _, re := range scored {
		if re != nil {
			ranked = append(ranked, *re)
		}
	}
	score.Stop()
	mRankedEvents.Add(float64(len(ranked)))
	fStage.Record(0, flight.CodeStageProfilerRank, flight.CodeNone,
		float64(len(ranked)), float64(len(events)-len(ranked)), 0)
	if p.cfg.Store != nil {
		fStage.Record(0, flight.CodeStageProfilerResume, flight.CodeStageProfilerRank,
			float64(traceHits+len(events)-len(missIdx)),
			float64(len(missing)+len(missIdx)), 0)
	}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].MI > ranked[j].MI })
	return ranked, nil
}

// Result is the complete profiling outcome.
type Result struct {
	Warmup *WarmupResult
	Ranked []RankedEvent
}

// TopEvents returns the n most vulnerable events.
func (r *Result) TopEvents(n int) []*hpc.Event {
	if n > len(r.Ranked) {
		n = len(r.Ranked)
	}
	out := make([]*hpc.Event, n)
	for i := 0; i < n; i++ {
		out[i] = r.Ranked[i].Event
	}
	return out
}

// Profile runs warm-up profiling followed by ranking.
func (p *Profiler) Profile(app workload.App) (*Result, error) {
	warm, err := p.Warmup(app)
	if err != nil {
		return nil, err
	}
	ranked, err := p.Rank(app, warm.Remaining)
	if err != nil {
		return nil, err
	}
	return &Result{Warmup: warm, Ranked: ranked}, nil
}

// EventDistribution collects the Fig. 3 artefacts for one event and secret:
// the distribution of per-trace summed counts, its Gaussian fit, Q-Q
// correlation against the standard normal and the KS statistic.
type EventDistribution struct {
	Event     string
	Secret    string
	Samples   []float64
	Fit       stats.Gaussian
	QQCorr    float64
	KS        float64
	Histogram stats.Histogram
}

// DistributionFor measures the event's per-trace totals over repeats of the
// secret and fits the Gaussian model (paper Fig. 3 evidence that event
// values are normally distributed).
func (p *Profiler) DistributionFor(app workload.App, secret string, event *hpc.Event, repeats int) (*EventDistribution, error) {
	if repeats <= 0 {
		repeats = p.cfg.RankRepeats
	}
	// Repeats are independent shards (per-repeat streams, private VMs) and
	// merge in repeat order, like Rank's trace collection.
	pool := parallel.NewPool("profiler.distribution", p.cfg.Parallelism)
	samples, err := parallel.Map(context.Background(), pool, repeats,
		func(_ context.Context, rep int) (float64, error) {
			stream := p.root.SplitN("dist/"+secret, rep)
			raw, err := p.rawTrace(app, secret, p.cfg.TraceTicks, stream, false)
			if err != nil {
				return 0, err
			}
			return event.Value(sumVec(raw)), nil
		})
	if err != nil {
		return nil, err
	}
	fit, err := stats.FitGaussian(samples)
	if err != nil {
		return nil, err
	}
	return &EventDistribution{
		Event:     event.Name,
		Secret:    secret,
		Samples:   samples,
		Fit:       fit,
		QQCorr:    stats.QQCorrelation(stats.QQNormal(samples)),
		KS:        stats.KSNormal(samples),
		Histogram: stats.NewHistogram(samples, 16),
	}, nil
}
