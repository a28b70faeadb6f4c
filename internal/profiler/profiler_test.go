package profiler

import (
	"math"
	"testing"

	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/workload"
)

// smallConfig keeps profiling runs fast for unit tests.
func smallConfig(seed uint64) Config {
	cfg := DefaultConfig(seed)
	cfg.WarmupTicks = 40
	cfg.WarmupRepeats = 2
	cfg.RankRepeats = 5
	cfg.TraceTicks = 60
	cfg.QuadratureSteps = 300
	return cfg
}

func smallWebsiteApp() *workload.WebsiteApp {
	return &workload.WebsiteApp{Sites: []string{
		"google.com", "youtube.com", "facebook.com", "github.com",
	}}
}

func TestWarmupFiltersHostOnlyEvents(t *testing.T) {
	cat := hpc.NewAMDEpyc7252Catalog(1)
	p := New(cat, smallConfig(1))
	res, err := p.Warmup(smallWebsiteApp())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Remaining) == 0 {
		t.Fatal("warm-up removed every event")
	}
	// Paper: only ~10% of events remain; software/other events vanish.
	frac := res.RemainingFraction()
	if frac > 0.15 {
		t.Errorf("remaining fraction = %.3f, want < 0.15", frac)
	}
	if res.RemainingPerType[hpc.TypeSoftware] != 0 {
		t.Errorf("%d software events survived warm-up", res.RemainingPerType[hpc.TypeSoftware])
	}
	if res.RemainingPerType[hpc.TypeOther] != 0 {
		t.Errorf("%d 'other' events survived warm-up", res.RemainingPerType[hpc.TypeOther])
	}
	if res.RemainingPerType[hpc.TypeHardware] == 0 {
		t.Error("no hardware events survived warm-up")
	}
	// The paper's AMD website case keeps 137 events; allow a generous
	// band around that (the catalog and workload are synthetic).
	if n := len(res.Remaining); n < 80 || n > 220 {
		t.Errorf("remaining events = %d, want within [80, 220] (paper: 137)", n)
	}
}

func TestWarmupKeepsKeyEvents(t *testing.T) {
	cat := hpc.NewAMDEpyc7252Catalog(1)
	p := New(cat, smallConfig(2))
	res, err := p.Warmup(smallWebsiteApp())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"RETIRED_UOPS":                   false,
		"LS_DISPATCH":                    false,
		"MAB_ALLOCATION_BY_PIPE":         false,
		"DATA_CACHE_REFILLS_FROM_SYSTEM": false,
	}
	for _, e := range res.Remaining {
		if _, ok := want[e.Name]; ok {
			want[e.Name] = true
		}
	}
	for name, found := range want {
		if !found {
			t.Errorf("key event %s filtered out by warm-up", name)
		}
	}
}

func TestRankOrdersByMI(t *testing.T) {
	cat := hpc.NewAMDEpyc7252Catalog(1)
	p := New(cat, smallConfig(3))
	events := []*hpc.Event{
		cat.MustByName("RETIRED_UOPS"),
		cat.MustByName("DATA_CACHE_REFILLS_FROM_SYSTEM"),
		cat.MustByName("RETIRED_X87_FP_OPS"), // websites do no x87 work
		cat.MustByName("SERIALIZING_OPS"),    // nor serialising work
	}
	ranked, err := p.Rank(smallWebsiteApp(), events)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) == 0 {
		t.Fatal("no events ranked")
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].MI > ranked[i-1].MI+1e-9 {
			t.Errorf("ranking not sorted: %v then %v", ranked[i-1].MI, ranked[i].MI)
		}
	}
	// Workload-relevant events must outrank events the app never touches.
	pos := map[string]int{}
	for i, r := range ranked {
		pos[r.Event.Name] = i
	}
	if uopsPos, x87Pos := pos["RETIRED_UOPS"], pos["RETIRED_X87_FP_OPS"]; uopsPos > x87Pos {
		t.Errorf("RETIRED_UOPS ranked %d, below untouched RETIRED_X87_FP_OPS at %d", uopsPos, x87Pos)
	}
	// MI is bounded by H(Y) = log2(4 secrets) = 2 bits.
	for _, r := range ranked {
		if r.MI < 0 || r.MI > 2.0001 {
			t.Errorf("event %s MI = %v out of [0,2]", r.Event.Name, r.MI)
		}
	}
	top := ranked[0]
	if top.MI < 0.5 {
		t.Errorf("top event MI = %v, want substantial leakage (> 0.5 bits)", top.MI)
	}
}

func TestProfileEndToEnd(t *testing.T) {
	cat := hpc.NewAMDEpyc7252Catalog(1)
	cfg := smallConfig(4)
	cfg.RankRepeats = 4
	cfg.TraceTicks = 50
	p := New(cat, cfg)
	app := &workload.WebsiteApp{Sites: []string{"google.com", "netflix.com"}}
	res, err := p.Profile(app)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ranked) == 0 {
		t.Fatal("profile produced no ranked events")
	}
	top := res.TopEvents(4)
	if len(top) != 4 {
		t.Fatalf("TopEvents(4) returned %d", len(top))
	}
	if res.TopEvents(len(res.Ranked)+100) == nil {
		t.Error("TopEvents with large n returned nil")
	}
}

func TestRankErrors(t *testing.T) {
	cat := hpc.NewAMDEpyc7252Catalog(1)
	p := New(cat, smallConfig(5))
	if _, err := p.Rank(smallWebsiteApp(), nil); err != ErrNoEvents {
		t.Errorf("no-events error = %v", err)
	}
	if _, err := p.Warmup(&workload.WebsiteApp{Sites: []string{}}); err != ErrNoSecrets {
		t.Errorf("no-secrets error = %v", err)
	}
}

func TestDistributionForIsGaussianLike(t *testing.T) {
	cat := hpc.NewAMDEpyc7252Catalog(1)
	cfg := smallConfig(6)
	cfg.TraceTicks = 60
	p := New(cat, cfg)
	app := smallWebsiteApp()
	dist, err := p.DistributionFor(app, "facebook.com",
		cat.MustByName("DATA_CACHE_REFILLS_FROM_SYSTEM"), 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(dist.Samples) != 30 {
		t.Fatalf("samples = %d", len(dist.Samples))
	}
	if dist.Fit.Sigma <= 0 {
		t.Error("degenerate Gaussian fit")
	}
	// Paper Fig. 3: event values are near-Gaussian; Q-Q correlation ~1.
	if dist.QQCorr < 0.9 {
		t.Errorf("Q-Q correlation = %v, want > 0.9", dist.QQCorr)
	}
	crit := 1.36 / math.Sqrt(float64(len(dist.Samples)))
	if dist.KS > 2*crit {
		t.Errorf("KS statistic = %v, far above critical %v", dist.KS, crit)
	}
}

// RemainingFraction returns N/M.
func (w WarmupResult) RemainingFraction() float64 {
	if w.TotalEvents == 0 {
		return 0
	}
	return float64(len(w.Remaining)) / float64(w.TotalEvents)
}
