package experiment

import (
	"fmt"

	"github.com/repro/aegis/internal/fuzzer"
	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/profiler"
	"github.com/repro/aegis/internal/stats"
)

// Ablation benches quantify the design choices DESIGN.md calls out:
// gadget set cover vs per-event injection, PCA features vs raw sums, and
// confirmation on vs off.

// SetCoverAblation compares the minimal-cover gadget count against naive
// per-event injection (one best gadget per event, no sharing).
type SetCoverAblation struct {
	Events        int
	CoverSize     int
	PerEventCount int
	// SegmentLen is the stacked segment's instruction count.
	SegmentLen int
}

// Reduction returns perEvent/cover, the paper's motivation for the cover
// (137 events need only 43 gadgets).
func (a SetCoverAblation) Reduction() float64 {
	if a.CoverSize == 0 {
		return 0
	}
	return float64(a.PerEventCount) / float64(a.CoverSize)
}

// AblationSetCover runs the fuzzer over a wider event set and compares the
// two injection strategies.
func AblationSetCover(sc Scale) (*SetCoverAblation, error) {
	cat := hpc.NewAMDEpyc7252Catalog(1)
	fcfg, err := sc.fuzzerConfig(sc.FuzzCandidates)
	if err != nil {
		return nil, err
	}
	fz, err := fuzzer.New(amdLegal(), fcfg)
	if err != nil {
		return nil, err
	}
	names := []string{
		"RETIRED_UOPS", "LS_DISPATCH", "MAB_ALLOCATION_BY_PIPE",
		"DATA_CACHE_REFILLS_FROM_SYSTEM", "HW_CACHE_L1D:WRITE",
		"HW_CACHE_L1D:READ", "HW_CACHE_L1D:MISS", "RETIRED_INSTRUCTIONS",
		"L2_CACHE_ACCESSES", "L2_CACHE_MISSES",
		"RETIRED_MMX_FP_INSTRUCTIONS:SSE_INSTR", "MEM_LOAD_UOPS_RETIRED:L1_HIT",
	}
	var events []*hpc.Event
	for _, n := range names {
		events = append(events, cat.MustByName(n))
	}
	res, err := fz.Fuzz(events)
	if err != nil {
		return nil, err
	}
	cover, err := fz.MinimalCover(res, events)
	if err != nil {
		return nil, err
	}
	perEvent := 0
	for _, e := range events {
		if _, ok := res.Best[e.Name]; ok {
			perEvent++
		}
	}
	return &SetCoverAblation{
		Events:        len(events),
		CoverSize:     len(cover),
		PerEventCount: perEvent,
		SegmentLen:    len(fuzzer.StackSegment(cover)),
	}, nil
}

// Render prints the ablation.
func (a *SetCoverAblation) Render() string {
	return fmt.Sprintf(
		"Ablation: gadget set cover — %d events, cover %d gadgets vs %d per-event (%.2fx fewer), segment %d instructions\n",
		a.Events, a.CoverSize, a.PerEventCount, a.Reduction(), a.SegmentLen)
}

// PCAAblation compares the MI ranking computed with PCA features against
// the raw-sum feature.
type PCAAblation struct {
	// TopOverlap is the fraction of the top-4 events shared by the two
	// rankings.
	TopOverlap float64
	// RankCorrelation is the Spearman correlation between the two
	// rankings' per-event MI scores.
	RankCorrelation float64
	// PCAMeanMI and RawMeanMI compare the information captured by each
	// feature.
	PCAMeanMI float64
	RawMeanMI float64
}

// AblationPCA ranks the website app's key events both ways.
func AblationPCA(sc Scale) (*PCAAblation, error) {
	cat := hpc.NewAMDEpyc7252Catalog(1)
	app := websiteApp(sc)
	var events []*hpc.Event
	for _, n := range []string{"RETIRED_UOPS", "LS_DISPATCH",
		"MAB_ALLOCATION_BY_PIPE", "DATA_CACHE_REFILLS_FROM_SYSTEM",
		"HW_CACHE_L1D:WRITE", "L2_CACHE_ACCESSES", "BRANCH_INSTRUCTIONS_RETIRED",
		"DTLB_MISSES"} {
		events = append(events, cat.MustByName(n))
	}

	rank := func(raw bool) ([]profiler.RankedEvent, error) {
		pcfg, err := sc.profilerConfig()
		if err != nil {
			return nil, err
		}
		pcfg.RawMeanFeature = raw
		return profiler.New(cat, pcfg).Rank(app, events)
	}
	pcaRank, err := rank(false)
	if err != nil {
		return nil, err
	}
	rawRank, err := rank(true)
	if err != nil {
		return nil, err
	}
	top := func(rk []profiler.RankedEvent, n int) map[string]bool {
		out := map[string]bool{}
		for i := 0; i < n && i < len(rk); i++ {
			out[rk[i].Event.Name] = true
		}
		return out
	}
	pcaTop := top(pcaRank, 4)
	rawTop := top(rawRank, 4)
	overlap := 0
	for name := range pcaTop {
		if rawTop[name] {
			overlap++
		}
	}
	mean := func(rk []profiler.RankedEvent) float64 {
		if len(rk) == 0 {
			return 0
		}
		var s float64
		for _, r := range rk {
			s += r.MI
		}
		return s / float64(len(rk))
	}
	// Spearman rank correlation over events present in both rankings.
	miOf := func(rk []profiler.RankedEvent) map[string]float64 {
		out := make(map[string]float64, len(rk))
		for _, r := range rk {
			out[r.Event.Name] = r.MI
		}
		return out
	}
	pcaMI := miOf(pcaRank)
	rawMI := miOf(rawRank)
	var xs, ys []float64
	for name, v := range pcaMI {
		if w, ok := rawMI[name]; ok {
			xs = append(xs, v)
			ys = append(ys, w)
		}
	}
	return &PCAAblation{
		TopOverlap:      float64(overlap) / 4,
		RankCorrelation: stats.Spearman(xs, ys),
		PCAMeanMI:       mean(pcaRank),
		RawMeanMI:       mean(rawRank),
	}, nil
}

// Render prints the ablation.
func (a *PCAAblation) Render() string {
	return fmt.Sprintf(
		"Ablation: PCA vs raw-sum feature — top-4 overlap %.0f%%, Spearman %.2f, mean MI: PCA %.3f vs raw %.3f bits\n",
		a.TopOverlap*100, a.RankCorrelation, a.PCAMeanMI, a.RawMeanMI)
}

// ConfirmationAblation quantifies the false positives the confirmation
// mechanisms remove.
type ConfirmationAblation struct {
	Event string
	// Unconfirmed is the gadget count accepted with confirmation off.
	Unconfirmed int
	// Confirmed is the count surviving the paper's three mechanisms.
	Confirmed int
}

// FalsePositiveRate returns the fraction rejected by confirmation.
func (a ConfirmationAblation) FalsePositiveRate() float64 {
	if a.Unconfirmed == 0 {
		return 0
	}
	return 1 - float64(a.Confirmed)/float64(a.Unconfirmed)
}

// AblationConfirmation fuzzes one event with and without confirmation.
func AblationConfirmation(sc Scale) (*ConfirmationAblation, error) {
	event := hpc.NewAMDEpyc7252Catalog(1).MustByName("DATA_CACHE_REFILLS_FROM_SYSTEM")
	legal := amdLegal()

	run := func(disable bool) (int, error) {
		fcfg, err := sc.fuzzerConfig(sc.FuzzCandidates * 4)
		if err != nil {
			return 0, err
		}
		fcfg.DisableConfirmation = disable
		fz, err := fuzzer.New(legal, fcfg)
		if err != nil {
			return 0, err
		}
		findings, _, _, err := fz.FuzzEvent(event)
		if err != nil {
			return 0, err
		}
		return len(findings), nil
	}
	unconfirmed, err := run(true)
	if err != nil {
		return nil, err
	}
	confirmed, err := run(false)
	if err != nil {
		return nil, err
	}
	return &ConfirmationAblation{
		Event:       event.Name,
		Unconfirmed: unconfirmed,
		Confirmed:   confirmed,
	}, nil
}

// Render prints the ablation.
func (a *ConfirmationAblation) Render() string {
	return fmt.Sprintf(
		"Ablation: confirmation — %s: %d raw candidates, %d confirmed (%.0f%% rejected as side effects/dirty state)\n",
		a.Event, a.Unconfirmed, a.Confirmed, a.FalsePositiveRate()*100)
}
