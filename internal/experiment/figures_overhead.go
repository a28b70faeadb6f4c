package experiment

import (
	"fmt"

	"github.com/repro/aegis/internal/obfuscator"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/sev"
	"github.com/repro/aegis/internal/trace"
	"github.com/repro/aegis/internal/workload"
)

// OverheadPoint is one (mechanism, ε, application) overhead measurement.
type OverheadPoint struct {
	Mechanism MechanismKind
	Epsilon   float64
	App       string
	// LatencyOverhead is the relative increase in mean job completion
	// time (paper: ~3-5% at the chosen operating points).
	LatencyOverhead float64
	// CPUUsageClean and CPUUsageDefended are mean vCPU utilisations; the
	// paper reports the defended increase (~7-9%).
	CPUUsageClean    float64
	CPUUsageDefended float64
}

// Figure10Result reproduces Fig. 10: latency and CPU overhead vs ε.
type Figure10Result struct {
	Points []OverheadPoint
}

// jobRun executes n jobs of the app back-to-back in a fresh world and
// returns the mean job duration (ticks) and the mean vCPU usage. The
// workload stream depends only on workloadSeed so a clean/defended pair
// executes the identical job sequence; defenseSeed varies the noise.
func jobRun(app workload.App, sc Scale, jobs int, defense obfuscator.Factory, workloadSeed, defenseSeed uint64) (meanTicks, cpuUsage float64, err error) {
	stream := rng.New(workloadSeed).Split("overhead")
	runner := workload.NewRunner(app.Name(), workload.DefaultLibrary(1), stream.Split("runner"))
	secrets := app.Secrets()
	for i := 0; i < jobs; i++ {
		job, err := app.Job(secrets[i%len(secrets)], stream.SplitN("job", i))
		if err != nil {
			return 0, 0, err
		}
		runner.Enqueue(job)
	}
	var obf sev.Process
	if defense != nil {
		if obf, err = defense(defenseSeed); err != nil {
			return 0, 0, err
		}
	}
	g, err := sev.NewGuest(sev.GuestConfig{
		World: sev.DefaultConfig(workloadSeed), VM: sev.VMConfig{VCPUs: 1, SEV: true},
		App: runner, Defense: obf,
	})
	if err != nil {
		return 0, 0, err
	}
	maxTicks := jobs * sc.TraceTicks * 20
	for i := 0; i < maxTicks && runner.Pending() > 0; i++ {
		g.World.Step()
	}
	if runner.Pending() > 0 {
		return 0, 0, fmt.Errorf("experiment: %s jobs did not finish within %d ticks", app.Name(), maxTicks)
	}
	usage, err := g.VM.CPUUsage(0)
	if err != nil {
		return 0, 0, err
	}
	return float64(runner.JobTicks()) / float64(runner.Completed()), usage, nil
}

// Figure10 measures website-load latency and DNN-inference latency plus
// CPU usage across the ε sweep for both mechanisms.
func Figure10(sc Scale, epsilons []float64) (*Figure10Result, error) {
	if epsilons == nil {
		epsilons = Epsilons()
	}
	kit, err := BuildDefenseKit(sc)
	if err != nil {
		return nil, err
	}
	res := &Figure10Result{}
	jobs := sc.TracesPerSecret
	if jobs < 4 {
		jobs = 4
	}
	for _, app := range []workload.App{websiteApp(sc), dnnApp(sc)} {
		workloadSeed := sc.Seed + 9000 + rng.HashString(app.Name())%1024
		cleanTicks, cleanCPU, err := jobRun(app, sc, jobs, nil, workloadSeed, 0)
		if err != nil {
			return nil, err
		}
		for _, mech := range []MechanismKind{MechLaplace, MechDStar} {
			for _, eps := range epsilons {
				defTicks, defCPU, err := jobRun(app, sc, jobs, kit.Defense(mech, eps),
					workloadSeed, sc.Seed+uint64(eps*512)+hashMech(mech))
				if err != nil {
					return nil, err
				}
				res.Points = append(res.Points, OverheadPoint{
					Mechanism:        mech,
					Epsilon:          eps,
					App:              app.Name(),
					LatencyOverhead:  defTicks/cleanTicks - 1,
					CPUUsageClean:    cleanCPU,
					CPUUsageDefended: defCPU,
				})
			}
		}
	}
	return res, nil
}

// Render prints the overhead grid.
func (r *Figure10Result) Render() string {
	out := "Figure 10: latency overhead (upper) and CPU usage (lower) vs epsilon\n"
	var rows [][]string
	for _, p := range r.Points {
		rows = append(rows, []string{
			string(p.Mechanism), fmt.Sprintf("%g", p.Epsilon), p.App,
			pct(p.LatencyOverhead),
			pct(p.CPUUsageClean), pct(p.CPUUsageDefended),
		})
	}
	return out + table([]string{"mechanism", "eps", "app", "latency ovh", "cpu clean", "cpu defended"}, rows)
}

// Figure11Point is one random-noise bound measurement.
type Figure11Point struct {
	// BoundFraction is the bound as a fraction of the peak value p.
	BoundFraction float64
	Accuracy      float64
	// InjectedCounts is the mean injected noise per run.
	InjectedCounts float64
}

// Figure11Result reproduces Fig. 11 and the §IX-A random-noise analysis:
// attack accuracy under uniform random noise, compared against the Laplace
// mechanism at its effective operating point (ε = 2^0).
type Figure11Result struct {
	Points []Figure11Point
	// LaplaceAccuracy and LaplaceInjected are the DP reference at ε = 1.
	LaplaceAccuracy float64
	LaplaceInjected float64
	// Peak is the clean per-tick peak value p of the reference event.
	Peak float64
}

// Figure11 sweeps the random-noise bound over [0.1, 0.5]×p on the WFA and
// compares with the Laplace mechanism.
func Figure11(sc Scale) (*Figure11Result, error) {
	kit, err := BuildDefenseKit(sc)
	if err != nil {
		return nil, err
	}
	app := websiteApp(sc)
	cleanDs, err := scenarioFor(app, sc, 700).Collect(nil)
	if err != nil {
		return nil, err
	}
	clf, _, err := cleanAttacker(cleanDs, sc, 11)
	if err != nil {
		return nil, err
	}
	res := &Figure11Result{Peak: peak(cleanDs)}

	// run scores the clean-trained attacker on one defense's probe runs.
	run := func(defense obfuscator.Factory, off uint64) (float64, float64, error) {
		ds, injected, err := injectedNoise(app, sc, off, app.Secrets(), victimReps(sc), "", defense)
		if err != nil {
			return 0, 0, err
		}
		acc, err := clf.Evaluate(ds)
		return acc, injected, err
	}

	// Laplace reference at ε = 1.
	res.LaplaceAccuracy, res.LaplaceInjected, err = run(kit.Defense(MechLaplace, 1), 710)
	if err != nil {
		return nil, err
	}
	for i, frac := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
		acc, inj, err := run(kit.Defense(MechRandom, frac*res.Peak), 720+uint64(i))
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, Figure11Point{
			BoundFraction:  frac,
			Accuracy:       acc,
			InjectedCounts: inj,
		})
	}
	return res, nil
}

// peak returns the largest per-tick value of the reference channel (the
// first event) over a dataset: the paper's peak p.
func peak(ds *trace.Dataset) float64 {
	var p float64
	for _, tr := range ds.Traces {
		for _, v := range tr.Channel(0) {
			if v > p {
				p = v
			}
		}
	}
	return p
}

// injectedNoise probes a defense's cost: it records one defended trace of
// app per (secret, repetition) from the scenario at offset off, each
// under an obfuscator built from the seed
// rng.HashString(fmt.Sprintf("%s%d/%s/%d", label, off, secret, rep)), and
// returns the traces and the mean counts injected per run.
func injectedNoise(app workload.App, sc Scale, off uint64, secrets []string, reps int, label string, defense obfuscator.Factory) (*trace.Dataset, float64, error) {
	scn := scenarioFor(app, sc, off)
	ds := &trace.Dataset{}
	var total float64
	for _, secret := range secrets {
		for rep := 0; rep < reps; rep++ {
			o, err := defense(rng.HashString(fmt.Sprintf("%s%d/%s/%d", label, off, secret, rep)))
			if err != nil {
				return nil, 0, err
			}
			tr, err := scn.CollectOne(secret, rep, func(uint64) (*obfuscator.Obfuscator, error) {
				return o, nil
			})
			if err != nil {
				return nil, 0, err
			}
			ds.Add(tr)
			total += o.InjectedCounts()
		}
	}
	return ds, total / float64(ds.Len()), nil
}

// Render prints the comparison.
func (r *Figure11Result) Render() string {
	out := fmt.Sprintf("Figure 11: random-noise baseline (peak p = %.0f)\n", r.Peak)
	out += fmt.Sprintf("Laplace eps=1 reference: accuracy %.1f%%, injected %.0f counts/run\n",
		r.LaplaceAccuracy*100, r.LaplaceInjected)
	var rows [][]string
	for _, p := range r.Points {
		ratio := 0.0
		if r.LaplaceInjected > 0 {
			ratio = p.InjectedCounts / r.LaplaceInjected
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.1fp", p.BoundFraction), pct(p.Accuracy),
			fmt.Sprintf("%.0f", p.InjectedCounts), fmt.Sprintf("%.2fx", ratio),
		})
	}
	return out + table([]string{"bound", "accuracy", "injected", "vs laplace"}, rows)
}

// ConstantOutputResult reproduces the §IX-A constant-output analysis: the
// injected counts needed to pad the reference event to its peak, compared
// with the Laplace mechanism (paper: ~18× more noise).
type ConstantOutputResult struct {
	ConstantInjected float64
	LaplaceInjected  float64
	Peak             float64
}

// Ratio returns constant/laplace injected counts.
func (r ConstantOutputResult) Ratio() float64 {
	if r.LaplaceInjected == 0 {
		return 0
	}
	return r.ConstantInjected / r.LaplaceInjected
}

// ConstantOutputComparison measures the injected noise of the
// constant-output defense against the Laplace mechanism on the website
// workload (the paper's youtube.com example).
func ConstantOutputComparison(sc Scale) (*ConstantOutputResult, error) {
	kit, err := BuildDefenseKit(sc)
	if err != nil {
		return nil, err
	}
	app := websiteApp(sc)
	// Establish the peak of the reference channel from clean traces.
	cleanSc := scenarioFor(app, sc, 800)
	cleanSc.TracesPerSecret = 2
	cleanDs, err := cleanSc.Collect(nil)
	if err != nil {
		return nil, err
	}
	res := &ConstantOutputResult{Peak: peak(cleanDs)}
	secrets := app.Secrets()
	if len(secrets) > 2 {
		secrets = secrets[:2]
	}
	if _, res.ConstantInjected, err = injectedNoise(app, sc, 810, secrets, 2, "c", kit.Defense(MechConstant, res.Peak)); err != nil {
		return nil, err
	}
	if _, res.LaplaceInjected, err = injectedNoise(app, sc, 820, secrets, 2, "c", kit.Defense(MechLaplace, 1)); err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints the comparison.
func (r *ConstantOutputResult) Render() string {
	return fmt.Sprintf(
		"Constant-output baseline (§IX-A): constant %.0f vs laplace %.0f injected counts/run => %.1fx\n",
		r.ConstantInjected, r.LaplaceInjected, r.Ratio())
}
