package experiment

import (
	"fmt"
	"sort"

	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/profiler"
	"github.com/repro/aegis/internal/stats"
	"github.com/repro/aegis/internal/workload"
)

// Figure3Result reproduces Fig. 3: the Gaussianity evidence for HPC event
// values — the sample histogram of one event on one site (3a), its Q-Q
// comparison against N(0,1) (3b), and the estimated per-site Gaussians
// (3c).
type Figure3Result struct {
	Event  string
	Secret string
	// Histogram is the Fig. 3a density view.
	Histogram stats.Histogram
	// QQ is the Fig. 3b plot data; QQCorr its correlation.
	QQ     []stats.QQPoint
	QQCorr float64
	// KS is the Kolmogorov-Smirnov distance to the fitted Gaussian.
	KS float64
	// PerSite is the Fig. 3c family of fitted Gaussians over 10 sites.
	PerSite []stats.ClassModel
}

// Figure3 measures DATA_CACHE_REFILLS_FROM_SYSTEM distributions over
// website accesses.
func Figure3(sc Scale) (*Figure3Result, error) {
	cat := hpc.NewAMDEpyc7252Catalog(1)
	pcfg, err := sc.profilerConfig()
	if err != nil {
		return nil, err
	}
	p := profiler.New(cat, pcfg)
	app := websiteApp(sc)
	event := cat.MustByName("DATA_CACHE_REFILLS_FROM_SYSTEM")

	repeats := sc.TracesPerSecret * 4
	if repeats < 20 {
		repeats = 20
	}
	dist, err := p.DistributionFor(app, app.Secrets()[0], event, repeats)
	if err != nil {
		return nil, err
	}
	res := &Figure3Result{
		Event:     event.Name,
		Secret:    dist.Secret,
		Histogram: dist.Histogram,
		QQ:        stats.QQNormal(dist.Samples),
		QQCorr:    dist.QQCorr,
		KS:        dist.KS,
	}
	// Fig. 3c: per-site Gaussians over up to 10 sites.
	sites := app.Secrets()
	if len(sites) > 10 {
		sites = sites[:10]
	}
	for _, site := range sites {
		d, err := p.DistributionFor(app, site, event, sc.RankRepeats*2)
		if err != nil {
			return nil, err
		}
		res.PerSite = append(res.PerSite, stats.ClassModel{Secret: site, Dist: d.Fit})
	}
	return res, nil
}

// Render prints the figure data.
func (r *Figure3Result) Render() string {
	out := fmt.Sprintf("Figure 3: distribution of %s on %s\n", r.Event, r.Secret)
	out += fmt.Sprintf("Q-Q correlation vs N(0,1): %.4f   KS distance: %.4f\n", r.QQCorr, r.KS)
	rows := make([][]string, 0, len(r.PerSite))
	for _, c := range r.PerSite {
		rows = append(rows, []string{c.Secret, f2(c.Dist.Mu), f2(c.Dist.Sigma)})
	}
	out += "\nFig. 3c per-site Gaussian fits:\n"
	out += table([]string{"site", "mu", "sigma"}, rows)
	return out
}

// Figure8Series is one application's ranked mutual-information curve.
type Figure8Series struct {
	App string
	// MI is sorted descending over the profiled events.
	MI []float64
	// Top lists the most vulnerable events.
	Top []string
}

// Figure8Result reproduces Fig. 8: per-event mutual information for the
// three applications.
type Figure8Result struct {
	Series []Figure8Series
}

// Figure8 profiles all three applications and ranks events by MI.
func Figure8(sc Scale) (*Figure8Result, error) {
	cat := hpc.NewAMDEpyc7252Catalog(1)
	pcfg, err := sc.profilerConfig()
	if err != nil {
		return nil, err
	}
	pcfg.WarmupRepeats = 2
	res := &Figure8Result{}
	for _, app := range []workload.App{websiteApp(sc), keystrokeApp(sc), dnnApp(sc)} {
		result, err := profiler.New(cat, pcfg).Profile(app)
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", app.Name(), err)
		}
		series := Figure8Series{App: app.Name()}
		for _, rk := range result.Ranked {
			series.MI = append(series.MI, rk.MI)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(series.MI)))
		for _, e := range result.TopEvents(5) {
			series.Top = append(series.Top, e.Name)
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}

// VulnerableEventCount returns how many events carry at least minBits of
// mutual information in a series (used to compare the three apps' curves:
// the paper finds the DNN app has more vulnerable events).
func (s Figure8Series) VulnerableEventCount(minBits float64) int {
	n := 0
	for _, mi := range s.MI {
		if mi >= minBits {
			n++
		}
	}
	return n
}

// Render prints the MI curves (decile summary) and top events.
func (r *Figure8Result) Render() string {
	out := "Figure 8: ranked per-event mutual information (bits)\n"
	for _, s := range r.Series {
		out += fmt.Sprintf("\n%s: %d profiled events, %d with MI >= 0.5 bits\n",
			s.App, len(s.MI), s.VulnerableEventCount(0.5))
		n := len(s.MI)
		rows := [][]string{}
		for _, q := range []int{0, 10, 25, 50, 75, 100} {
			idx := (n - 1) * q / 100
			if n == 0 {
				break
			}
			rows = append(rows, []string{fmt.Sprintf("p%d", q), f3(s.MI[idx])})
		}
		out += table([]string{"rank percentile", "MI"}, rows)
		out += "top events: " + fmt.Sprint(s.Top) + "\n"
	}
	return out
}
