package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	aegis "github.com/repro/aegis"
	"github.com/repro/aegis/internal/fuzzer"
	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/profiler"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/telemetry"
	"github.com/repro/aegis/internal/workload"
)

// campaignSpec is aegisd's start-up plan build: profile the website app,
// fuzz its top events, reduce to a minimal cover.
type campaignSpec struct {
	candidates, secrets, top int
	// traceTicks and repeats are the profiling budgets (leakage-trace
	// length, measurements per secret).
	traceTicks, repeats int
	// inputs is how many campaign seeds a run cycles through. A seed
	// changes how many events survive warm-up and what the fuzzer finds,
	// so one seed's campaign time says little about another's; cycling
	// through several keeps run-to-run spread down.
	inputs int
	// minRuns is the fewest campaigns a run times, so that the p75 tail
	// keeps ten samples beyond it.
	minRuns int
	// perSecond turns --seconds into a campaign count: the reference
	// host's rate.
	perSecond float64
}

// campaignFull uses aegisd's defaults: 400 candidates per event, top 4
// events, 4 secrets, and aegis.New's profiling budgets.
var campaignFull = campaignSpec{
	candidates: 400, secrets: 4, top: 4, traceTicks: 120, repeats: 8,
	inputs: 6, minRuns: 40, perSecond: 1.8,
}

func (c campaignSpec) config(seed uint64) aegis.Config {
	return aegis.Config{
		Seed:              seed,
		FuzzCandidates:    c.candidates,
		Parallelism:       parallelism,
		ProfileTraceTicks: c.traceTicks,
		ProfileRepeats:    c.repeats,
	}
}

func (c campaignSpec) app() workload.App {
	return &workload.WebsiteApp{Sites: workload.Websites()[:c.secrets]}
}

// plan is a campaign's output, the shared protection plan aegisd deploys.
type plan struct {
	events  []string
	segment []isa.Variant
	ref     *hpc.Event
	cover   int
	tried   int
}

// digest hashes everything the plan's consumers see.
func (p plan) digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "events=%q ref=%s cover=%d tried=%d\n", p.events, p.ref.Name, p.cover, p.tried)
	for _, v := range p.segment {
		fmt.Fprintf(h, "%d %s\n", v.ID, v.Key())
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// runCampaign is one cold plan build through the facade, with a fresh
// framework.
func runCampaign(spec campaignSpec, seed uint64) (plan, error) {
	fw, err := aegis.New(spec.config(seed))
	if err != nil {
		return plan{}, err
	}
	defer fw.Close()
	prof, err := fw.Profile(spec.app())
	if err != nil {
		return plan{}, err
	}
	gs, err := fw.Fuzz(prof.Top(spec.top))
	if err != nil {
		return plan{}, err
	}
	return plan{events: gs.Events, segment: gs.Segment(), ref: gs.RefEvent(),
		cover: gs.CoverSize, tried: gs.GadgetsTried}, nil
}

// campaignInputs are a run's campaign seeds with the plan each built.
type campaignInputs struct {
	seeds []uint64
	plans []plan
}

// digest combines the plans' digests.
func (in campaignInputs) digest() string {
	h := sha256.New()
	for _, p := range in.plans {
		fmt.Fprintln(h, p.digest())
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// frameworkBuilds is how often a campaign run times framework
// construction for setup_s. One build takes about 13 ms on the reference
// host, too short for three to give a steady median.
const frameworkBuilds = 15

// setupCampaign is the campaign workload's set-up. It times framework
// construction (catalog and ISA cleanup) frameworkBuilds times, then derives
// the run's campaign seeds from seed and runs each once, untimed: that
// finishes the process's lazy set-up before timing, records each seed's
// plan for the checks, and skips seeds whose campaign confirms no gadget,
// since aegisd refuses to start without a plan and a 400-candidate
// campaign occasionally confirms none. It returns the inputs and the
// median framework construction time in seconds.
func setupCampaign(spec campaignSpec, seed uint64, log io.Writer) (campaignInputs, float64, error) {
	var in campaignInputs
	var setups []float64
	for i := 0; i < frameworkBuilds; i++ {
		start := time.Now()
		fw, err := aegis.New(spec.config(seed))
		if err != nil {
			return in, 0, err
		}
		setups = append(setups, time.Since(start).Seconds())
		_ = fw.Close() // no ops server configured: Close has nothing to stop
	}
	root := rng.NewStream(seed, "bench", "campaign")
	for k := 0; len(in.seeds) < spec.inputs; k++ {
		if k == 4*spec.inputs {
			return in, 0, fmt.Errorf("only %d of %d campaign seeds confirmed a gadget", len(in.seeds), k)
		}
		s := root.SplitN("seed", k).Uint64()
		p, err := runCampaign(spec, s)
		if errors.Is(err, aegis.ErrNoGadgets) {
			fmt.Fprintf(log, "campaign seed %d confirms no gadget: skipped\n", s)
			continue
		}
		if err != nil {
			return in, 0, err
		}
		in.seeds = append(in.seeds, s)
		in.plans = append(in.plans, p)
	}
	fmt.Fprintf(log, "setup: %d campaign seeds, framework build %.4f s median\n", len(in.seeds), median(setups))
	return in, median(setups), nil
}

// runCampaigns is the untraced run: cold campaigns with telemetry off,
// cycling through the inputs, each plan checked against the one its seed
// built during set-up. Before each campaign a collection clears the last
// one's garbage, so every campaign starts from the same heap and the pace
// probe that follows runs on an idle process.
func runCampaigns(spec campaignSpec, seed uint64, n int, log io.Writer) *report {
	rep := newReport()
	telemetry.Default().SetEnabled(false)
	defer telemetry.Default().SetEnabled(true)
	in, setup, err := setupCampaign(spec, seed, log)
	if err != nil {
		rep.check(false, "set-up: %v", err)
		return rep
	}
	heap := heapMB()
	pc := newPace()
	lat := make([]time.Duration, 0, n)
	scaled := make([]float64, 0, n) // ms at the reference pace
	tried := 0
	for i := 0; i < n; i++ {
		runtime.GC()
		pc.burst()
		k := i % len(in.seeds)
		rep.attempted++
		start := time.Now()
		got, err := runCampaign(spec, in.seeds[k])
		lat = append(lat, time.Since(start))
		scaled = append(scaled, float64(lat[i])/float64(time.Millisecond)*pc.scale())
		if err != nil {
			rep.failed++
			rep.check(false, "campaign %d: %v", i, err)
			continue
		}
		tried += got.tried
		rep.check(got.digest() == in.plans[k].digest(), "campaign %d plan %s != set-up plan %s",
			i, got.digest(), in.plans[k].digest())
	}
	ms := millis(lat)
	p := tailPercentile(len(ms), minBeyondTail)
	fmt.Fprintf(log, "run: %d campaigns in %.2f s; tail is p%g\n", n, sum(lat).Seconds(), p)
	fmt.Fprintf(log, "digest: %s\n", in.digest())
	fmt.Fprintf(log, "unscaled: throughput %.1f/s, p50 %.3f ms, tail %.3f ms, setup %.4f s\n",
		float64(tried)/sum(lat).Seconds(), median(ms), percentile(ms, p), setup)
	pc.report(log)
	rep.set("throughput_per_s", float64(tried)/sumOf(scaled)*1e3)
	rep.set("latency_p50_ms", median(scaled))
	rep.set("latency_tail_ms", percentile(scaled, p))
	rep.set("setup_s", setup*pc.factor())
	rep.set("heap_mb", heap)
	return rep
}

// campaignLayers is one layer-by-layer campaign's timing.
type campaignLayers struct {
	isa, warmup, rank, fuzz, cover, total time.Duration
	scored                                int
}

// runLayered replays the facade's campaign one layer at a time with the
// facade's configuration: ISA cleanup, profiler warm-up and ranking,
// fuzzing and the minimal cover.
func runLayered(spec campaignSpec, seed uint64) (campaignLayers, plan, error) {
	var l campaignLayers
	cfg := spec.config(seed)
	start := time.Now()
	clean := isa.Cleanup(isa.SpecAMDEpyc(1), isa.AMDEpycFeatures())
	l.isa = time.Since(start)
	catalog, err := hpc.CatalogByProcessor("AMD EPYC 7252", 1)
	if err != nil {
		return l, plan{}, err
	}
	pcfg := profiler.DefaultConfig(seed)
	pcfg.TraceTicks = cfg.ProfileTraceTicks
	pcfg.RankRepeats = cfg.ProfileRepeats
	pcfg.Parallelism = cfg.Parallelism
	app := spec.app()
	mark := time.Now()
	prof := profiler.New(catalog, pcfg)
	warm, err := prof.Warmup(app)
	if err != nil {
		return l, plan{}, err
	}
	l.warmup = time.Since(mark)
	l.scored = len(warm.Remaining)
	mark = time.Now()
	ranked, err := prof.Rank(app, warm.Remaining)
	if err != nil {
		return l, plan{}, err
	}
	l.rank = time.Since(mark)
	var events []*hpc.Event
	var names []string
	for i := 0; i < spec.top && i < len(ranked); i++ {
		events = append(events, ranked[i].Event)
		names = append(names, ranked[i].Event.Name)
	}
	if len(events) == 0 {
		return l, plan{}, fmt.Errorf("profiling ranked no events")
	}
	fcfg := fuzzer.DefaultConfig(seed)
	fcfg.CandidatesPerEvent = cfg.FuzzCandidates
	fcfg.Parallelism = cfg.Parallelism
	mark = time.Now()
	fz, err := fuzzer.New(clean.Legal, fcfg)
	if err != nil {
		return l, plan{}, err
	}
	res, err := fz.Fuzz(events)
	if err != nil && res == nil {
		return l, plan{}, err
	}
	l.fuzz = time.Since(mark)
	mark = time.Now()
	cover, err := fz.MinimalCover(res, events)
	if err != nil {
		return l, plan{}, err
	}
	l.cover = time.Since(mark)
	seg := fuzzer.StackSegment(cover)
	l.total = time.Since(start)
	return l, plan{events: names, segment: seg, ref: events[0], cover: len(cover), tried: res.CandidatesTried}, nil
}

// runCampaignsTraced is the traced run. Pairs of facade campaigns on the
// same seed, one untraced and one with telemetry on, give the tracing
// overhead; layer-by-layer campaigns with telemetry on give the per-layer
// times and counts, and their plans must equal the facade's.
func runCampaignsTraced(spec campaignSpec, seed uint64, n int, log io.Writer) *report {
	rep := newReport()
	reg := telemetry.Default()
	reg.SetEnabled(false)
	defer reg.SetEnabled(true)
	in, _, err := setupCampaign(spec, seed, log)
	if err != nil {
		rep.check(false, "set-up: %v", err)
		return rep
	}
	var overhead []float64
	for i := 0; i < n/4; i++ {
		k := i % len(in.seeds)
		var secs [2]float64
		for j, on := range []bool{false, true} {
			reg.SetEnabled(on)
			rep.attempted++
			start := time.Now()
			got, err := runCampaign(spec, in.seeds[k])
			secs[j] = time.Since(start).Seconds()
			if err != nil {
				rep.failed++
				rep.check(false, "facade campaign: %v", err)
				continue
			}
			rep.check(got.digest() == in.plans[k].digest(), "facade plan %s != %s", got.digest(), in.plans[k].digest())
		}
		overhead = append(overhead, secs[1]/secs[0]-1)
	}

	pc := newPace()
	pc.burst()
	reg.SetEnabled(true)
	before := readCampaignTotals()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	layered := n - 2*(n/4)
	var isaT, warmT, rankT, fuzzT, coverT, totalT []float64
	var scored, tried int
	valid := true
	wall := time.Now()
	for i := 0; i < layered; i++ {
		k := i % len(in.seeds)
		rep.attempted++
		l, got, err := runLayered(spec, in.seeds[k])
		if err != nil {
			rep.failed++
			rep.check(false, "layered campaign: %v", err)
			valid = false
			continue
		}
		if got.digest() != in.plans[k].digest() {
			valid = false
			rep.check(false, "layered plan %s != facade plan %s", got.digest(), in.plans[k].digest())
		}
		isaT = append(isaT, l.isa.Seconds())
		warmT = append(warmT, l.warmup.Seconds())
		rankT = append(rankT, l.rank.Seconds())
		fuzzT = append(fuzzT, l.fuzz.Seconds())
		coverT = append(coverT, l.cover.Seconds())
		totalT = append(totalT, l.total.Seconds())
		scored += l.scored
		tried += got.tried
	}
	elapsed := time.Since(wall).Seconds()
	runtime.ReadMemStats(&ms1)
	after := readCampaignTotals()
	reg.SetEnabled(false)
	pc.burst()
	rep.set("host.pace_us", median(pc.samples))
	if valid {
		rep.set("ledger.valid", 1)
	}

	// Means, not medians, so the layers and the remainder add up to the
	// total exactly.
	mean := func(xs []float64) float64 { return sumOf(xs) / float64(len(xs)) }
	isaS, warm, rank := mean(isaT), mean(warmT), mean(rankT)
	fuzz, cover, total := mean(fuzzT), mean(coverT), mean(totalT)
	unattributed := total - isaS - warm - rank - fuzz - cover
	perCampaign := float64(scored) / float64(layered)
	rep.set("isa.cleanup_ms", isaS*1e3)
	rep.set("profiler.warmup_s", warm)
	rep.set("profiler.rank_s", rank)
	rep.set("profiler.events_scored", perCampaign)
	rep.set("fuzzer.fuzz_s", fuzz)
	rep.set("fuzzer.cover_ms", cover*1e3)
	rep.set("fuzzer.candidates_per_s", float64(tried)/sumOf(fuzzT))
	hits, misses := after.memoHits-before.memoHits, after.memoMisses-before.memoMisses
	rep.set("fuzzer.confirm_ratio", ratio(after.confirmed-before.confirmed, after.screened-before.screened))
	rep.set("fuzzer.screen_memo_hit_ratio", ratio(hits, hits+misses))
	pooled := sumOf(warmT) + sumOf(rankT) + sumOf(fuzzT) + sumOf(coverT)
	rep.set("parallel.busy_ratio", ratio(after.shardSeconds-before.shardSeconds, parallelism*pooled))
	rep.set("campaign.total_s", total)
	rep.set("campaign.unattributed_s", unattributed)
	rep.set("ledger.trace_overhead_pct", median(overhead)*100)
	rep.set("go.gc_pause_ms_per_s", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6/elapsed)

	pcaUs, miUs, err := statsKernelsUs(seed, spec.secrets, spec.repeats, spec.traceTicks,
		profiler.DefaultConfig(seed).QuadratureSteps)
	rep.check(err == nil, "stats kernels: %v", err)
	rep.set("stats.fitpca_us", pcaUs)
	rep.set("stats.mi_us", miUs)

	fmt.Fprintf(log, "ledger (mean s per campaign over %d layered campaigns):\n", layered)
	for _, l := range []struct {
		name string
		s    float64
	}{
		{"isa.cleanup", isaS}, {"profiler.warmup", warm}, {"profiler.rank", rank},
		{"fuzzer.fuzz", fuzz}, {"fuzzer.cover", cover}, {"campaign.unattributed", unattributed},
	} {
		fmt.Fprintf(log, "  %-24s %8.4f\n", l.name, l.s)
	}
	fmt.Fprintf(log, "  %-24s %8.4f\n", "campaign.total", total)
	fmt.Fprintf(log, "kernels x calls: fitpca %.4f s + mi %.4f s for %.0f scored events (rank %.4f s)\n",
		pcaUs*perCampaign/1e6, miUs*perCampaign/1e6, perCampaign, rank)
	return rep
}

// sumOf adds float64s.
func sumOf(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// campaignTotals are the campaign layers' telemetry counters.
type campaignTotals struct {
	screened, confirmed, memoHits, memoMisses, shardSeconds float64
}

// readCampaignTotals reads the fuzzer funnel and the shard time of the
// campaign's four worker pools.
func readCampaignTotals() campaignTotals {
	memo := func(outcome string) float64 {
		return telemetry.C(telemetry.MetricFuzzerScreenMemoTotal, telemetry.L("outcome", outcome)).Value()
	}
	t := campaignTotals{
		screened:   telemetry.C(telemetry.MetricFuzzerCandidatesScreenedTotal).Value(),
		confirmed:  telemetry.C(telemetry.MetricFuzzerCandidatesConfirmedTotal).Value(),
		memoHits:   memo("hit"),
		memoMisses: memo("miss"),
	}
	for _, pool := range []string{"profiler.warmup", "profiler.rank", "fuzzer.events", "fuzzer.cover"} {
		t.shardSeconds += telemetry.H(telemetry.MetricParallelShardSeconds, telemetry.DefBuckets,
			telemetry.L("pool", pool)).Sum()
	}
	return t
}
