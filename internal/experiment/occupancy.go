package experiment

import (
	"fmt"

	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/microarch"
	"github.com/repro/aegis/internal/obfuscator"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/sev"
	"github.com/repro/aegis/internal/trace"
	"github.com/repro/aegis/internal/workload"
)

// Cache-occupancy extension (paper §X: "we also tend to generalize our
// framework to more micro-architectural attacks, e.g., cache ... side
// channels"). On a shared-L2 core complex, an attacker VM on the sibling
// core sweeps a probe buffer every tick; its own L2 miss count measures
// how much of the shared cache the victim occupies — the cache-occupancy
// channel of Shusterman et al. (paper reference [63]), requiring no HPC
// access to the victim's core at all. Aegis's injected gadget executions
// run on the victim's core and perturb the same shared cache, so the
// defense transfers.

// probeProc sweeps a fixed buffer spanning the shared L2 each tick.
type probeProc struct {
	load    microarch.Op
	perTick int
}

func (p *probeProc) Step(g *sev.GuestExecutor) {
	// The probe working set matches the L2 size so every victim line
	// evicts a probe line.
	g.Context().WorkingSet = 512 << 10
	for i := 0; i < p.perTick; i++ {
		ok, err := g.ExecuteOp(p.load)
		if err != nil || !ok {
			return
		}
	}
}

// OccupancyScenario collects cache-occupancy traces: the label is the
// website the victim loads; the signal is the attacker's own per-tick L2
// miss count.
type OccupancyScenario struct {
	App             *workload.WebsiteApp
	TracesPerSecret int
	TraceTicks      int
	Seed            uint64
}

// collectOne records one occupancy trace, optionally with the victim
// defended: probe runs on the attacker's core, which counts l2Misses.
func (s *OccupancyScenario) collectOne(secret string, rep int, defense obfuscator.Factory, probe *probeProc, l2Misses *hpc.Event) (trace.Trace, error) {
	cfg := sev.DefaultConfig(s.Seed)
	cfg.SharedL2 = true
	stream := rng.New(s.Seed).Split("occupancy/"+secret).SplitN("rep", rep)
	cfg.Seed = stream.Uint64()
	runner := workload.NewRunner("browser", workload.DefaultLibrary(1), stream.Split("runner"))
	job, err := s.App.Job(secret, stream.Split("job"))
	if err != nil {
		return trace.Trace{}, err
	}
	runner.Enqueue(job)
	var obf sev.Process
	if defense != nil {
		if obf, err = defense(stream.Uint64()); err != nil {
			return trace.Trace{}, err
		}
	}
	victim, err := sev.NewGuest(sev.GuestConfig{ // core 0
		World: cfg, VM: sev.VMConfig{VCPUs: 1, SEV: true}, App: runner, Defense: obf,
	})
	if err != nil {
		return trace.Trace{}, err
	}
	attacker, err := victim.World.LaunchVM(sev.VMConfig{VCPUs: 1, SEV: false}) // core 1 (sibling)
	if err != nil {
		return trace.Trace{}, err
	}
	if err := attacker.AddProcess(0, probe); err != nil {
		return trace.Trace{}, err
	}

	// The attacker monitors its OWN core's L2 misses — no access to the
	// victim's core or VM is needed.
	attackerCoreIdx, err := attacker.PhysicalCore(0)
	if err != nil {
		return trace.Trace{}, err
	}
	attackerCore, err := victim.World.Core(attackerCoreIdx)
	if err != nil {
		return trace.Trace{}, err
	}
	return trace.Project(trace.Record(victim.World, attackerCore, s.TraceTicks),
		[]*hpc.Event{l2Misses}, stream.Split("probe-noise"), secret)
}

// Collect records the full labelled occupancy dataset.
func (s *OccupancyScenario) Collect(defense obfuscator.Factory) (*trace.Dataset, error) {
	// The probe's load and the attacker's event are the same for every
	// trace: resolve them once. The probe holds no state between ticks,
	// so every trace's attacker runs the same one.
	var load isa.Variant
	for _, v := range amdLegal() {
		if v.Class == isa.ClassLoad {
			load = v
			break
		}
	}
	probe := &probeProc{load: microarch.Decode(&load), perTick: 600}
	l2Misses := hpc.NewAMDEpyc7252Catalog(1).MustByName("L2_CACHE_MISSES")
	ds := &trace.Dataset{EventNames: []string{"L2_CACHE_MISSES(attacker-core)"}}
	for _, secret := range s.App.Secrets() {
		for rep := 0; rep < s.TracesPerSecret; rep++ {
			tr, err := s.collectOne(secret, rep, defense, probe, l2Misses)
			if err != nil {
				return nil, fmt.Errorf("occupancy %s rep %d: %w", secret, rep, err)
			}
			ds.Add(tr)
		}
	}
	return ds, nil
}

// OccupancyResult summarises the cache-occupancy extension experiment.
type OccupancyResult struct {
	CleanAccuracy    float64
	DefendedAccuracy float64
	RandomGuess      float64
}

// CacheOccupancyExtension runs the full extension: train a website
// classifier on clean occupancy traces, then evaluate it on traces where
// the victim runs the standard Aegis obfuscator.
func CacheOccupancyExtension(sc Scale, epsilon float64) (*OccupancyResult, error) {
	kit, err := BuildDefenseKit(sc)
	if err != nil {
		return nil, err
	}
	app := websiteApp(sc)
	scenario := &OccupancyScenario{
		App:             app,
		TracesPerSecret: sc.TracesPerSecret,
		TraceTicks:      sc.TraceTicks,
		Seed:            sc.Seed + 1300,
	}
	cleanDs, err := scenario.Collect(nil)
	if err != nil {
		return nil, err
	}
	clf, cleanAcc, err := cleanAttacker(cleanDs, sc, 41)
	if err != nil {
		return nil, err
	}

	defendedScenario := *scenario
	defendedScenario.Seed += 500
	defendedScenario.TracesPerSecret = victimReps(sc)
	defendedDs, err := defendedScenario.Collect(kit.Defense(MechLaplace, epsilon))
	if err != nil {
		return nil, err
	}
	defAcc, err := clf.Evaluate(defendedDs)
	if err != nil {
		return nil, err
	}
	return &OccupancyResult{
		CleanAccuracy:    cleanAcc,
		DefendedAccuracy: defAcc,
		RandomGuess:      1 / float64(len(app.Secrets())),
	}, nil
}

// Render prints the result.
func (r *OccupancyResult) Render() string {
	return fmt.Sprintf(
		"Cache-occupancy extension (§X): clean %.1f%%, Aegis-defended %.1f%% (chance %.1f%%)\n",
		r.CleanAccuracy*100, r.DefendedAccuracy*100, r.RandomGuess*100)
}
