package experiment

import (
	"fmt"

	"github.com/repro/aegis/internal/attack"
	"github.com/repro/aegis/internal/obfuscator"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/stats"
	"github.com/repro/aegis/internal/trace"
	"github.com/repro/aegis/internal/workload"
)

// DefensePoint is one (mechanism, ε, attack) accuracy measurement.
type DefensePoint struct {
	Mechanism MechanismKind
	Epsilon   float64
	Attack    AttackName
	Accuracy  float64
}

// Figure9aResult reproduces Fig. 9a: attack accuracy under defense as a
// function of ε, for a clean-trained attacker.
type Figure9aResult struct {
	// CleanAccuracy per attack (the undefended reference).
	CleanAccuracy map[AttackName]float64
	Points        []DefensePoint
	// RandomGuess per attack.
	RandomGuess map[AttackName]float64
}

// Figure9a trains the attacks on clean traces, then evaluates them on
// defended traces across the ε sweep for both DP mechanisms.
func Figure9a(sc Scale, epsilons []float64) (*Figure9aResult, error) {
	if epsilons == nil {
		epsilons = Epsilons()
	}
	kit, err := BuildDefenseKit(sc)
	if err != nil {
		return nil, err
	}
	ta, fig1, err := trainAll(sc)
	if err != nil {
		return nil, err
	}
	res := &Figure9aResult{
		CleanAccuracy: map[AttackName]float64{},
		RandomGuess:   map[AttackName]float64{},
	}
	for _, a := range fig1.Attacks {
		res.CleanAccuracy[a.Attack] = a.VictimAcc
		res.RandomGuess[a.Attack] = a.RandomGuess
	}

	// Each attack's defended victims come from its own app and seed
	// offset, and its clean-trained model scores them.
	attacks := []struct {
		name     AttackName
		app      workload.App
		off      uint64
		evaluate func(*trace.Dataset) (float64, error)
	}{
		{WFA, websiteApp(sc), 100, ta.wfa.Evaluate},
		{KSA, keystrokeApp(sc), 200, ta.ksa.Evaluate},
		{MEA, dnnApp(sc), 300, ta.mea.Evaluate},
	}
	for _, mech := range []MechanismKind{MechLaplace, MechDStar} {
		for _, eps := range epsilons {
			for _, a := range attacks {
				sc2 := scenarioFor(a.app, sc, a.off+uint64(eps*1024)+hashMech(mech))
				sc2.TracesPerSecret = victimReps(sc)
				ds, err := sc2.Collect(kit.Defense(mech, eps))
				var acc float64
				if err == nil {
					acc, err = a.evaluate(ds)
				}
				if err != nil {
					return nil, fmt.Errorf("defended %s %s eps=%v: %w", a.name, mech, eps, err)
				}
				res.Points = append(res.Points, DefensePoint{
					Mechanism: mech, Epsilon: eps, Attack: a.name, Accuracy: acc,
				})
			}
		}
	}
	return res, nil
}

func hashMech(m MechanismKind) uint64 {
	return rng.HashString(string(m)) % 4096
}

// victimReps bounds the defended-evaluation dataset size.
func victimReps(sc Scale) int {
	reps := sc.TracesPerSecret / 2
	if reps < 2 {
		reps = 2
	}
	return reps
}

// Render prints the accuracy grid.
func (r *Figure9aResult) Render() string {
	out := "Figure 9a: attack accuracy under defense (clean-trained attacker)\n"
	out += fmt.Sprintf("clean accuracies: WFA %.1f%%  KSA %.1f%%  MEA %.1f%%\n",
		r.CleanAccuracy[WFA]*100, r.CleanAccuracy[KSA]*100, r.CleanAccuracy[MEA]*100)
	var rows [][]string
	for _, p := range r.Points {
		rows = append(rows, []string{
			string(p.Mechanism), fmt.Sprintf("%g", p.Epsilon), string(p.Attack), pct(p.Accuracy),
		})
	}
	return out + table([]string{"mechanism", "eps", "attack", "accuracy"}, rows)
}

// Figure9bResult reproduces Fig. 9b: the adaptive attacker who trains on
// defended traces.
type Figure9bResult struct {
	Points      []DefensePoint
	RandomGuess map[AttackName]float64
}

// Figure9b trains the attacker on noisy traces per (mechanism, ε) and
// evaluates on freshly defended traces.
func Figure9b(sc Scale, epsilons []float64) (*Figure9bResult, error) {
	if epsilons == nil {
		epsilons = EpsilonsAdaptive()
	}
	kit, err := BuildDefenseKit(sc)
	if err != nil {
		return nil, err
	}
	// Each attack trains and is scored on its own app from its own
	// scenario offset.
	attacks := []struct {
		name AttackName
		app  workload.App
		off  uint64
	}{
		{WFA, websiteApp(sc), 400},
		{KSA, keystrokeApp(sc), 500},
	}
	res := &Figure9bResult{RandomGuess: map[AttackName]float64{}}
	for _, a := range attacks {
		res.RandomGuess[a.name] = 1 / float64(len(a.app.Secrets()))
	}
	for _, mech := range []MechanismKind{MechLaplace, MechDStar} {
		for _, eps := range epsilons {
			defense := kit.Defense(mech, eps)
			for _, a := range attacks {
				trainSc := scenarioFor(a.app, sc, a.off+uint64(eps*4096)+hashMech(mech))
				trainDs, err := trainSc.Collect(defense)
				if err != nil {
					return nil, err
				}
				clf, _, err := attack.TrainClassifier(trainDs, attack.TrainConfig{Epochs: sc.Epochs, Seed: sc.Seed + uint64(eps*64)})
				if err != nil {
					return nil, err
				}
				evalSc := scenarioFor(a.app, sc, a.off+2000+uint64(eps*4096)+hashMech(mech))
				evalSc.TracesPerSecret = victimReps(sc)
				evalDs, err := evalSc.Collect(defense)
				if err != nil {
					return nil, err
				}
				acc, err := clf.Evaluate(evalDs)
				if err != nil {
					return nil, err
				}
				res.Points = append(res.Points, DefensePoint{
					Mechanism: mech, Epsilon: eps, Attack: a.name, Accuracy: acc,
				})
			}
		}
	}
	return res, nil
}

// Render prints the grid.
func (r *Figure9bResult) Render() string {
	out := "Figure 9b: adaptive attacker trained on defended traces\n"
	var rows [][]string
	for _, p := range r.Points {
		rows = append(rows, []string{
			string(p.Mechanism), fmt.Sprintf("%g", p.Epsilon), string(p.Attack), pct(p.Accuracy),
		})
	}
	return out + table([]string{"mechanism", "eps", "attack", "accuracy"}, rows)
}

// Figure9cPoint is one ε of the residual-MI curve.
type Figure9cPoint struct {
	Mechanism MechanismKind
	Epsilon   float64
	// MI is the estimated mutual information I(X;X') between clean and
	// noised per-tick counts, in bits.
	MI float64
}

// Figure9cResult reproduces Fig. 9c: I(X;X') shrinking as noise grows.
type Figure9cResult struct {
	Points []Figure9cPoint
	// CleanSelfMI is I(X;X) — the no-noise upper reference.
	CleanSelfMI float64
}

// Figure9c collects clean traces, then post-composes each DP mechanism's
// noise at every ε and estimates the binned MI between clean and noised
// per-tick values (the paper's information-theoretic defense argument:
// as I(X;X') falls, I(X';Y) falls with it).
func Figure9c(sc Scale, epsilons []float64) (*Figure9cResult, error) {
	if epsilons == nil {
		epsilons = Epsilons()
	}
	wfaSc := scenarioFor(websiteApp(sc), sc, 600)
	ds, err := wfaSc.Collect(nil)
	if err != nil {
		return nil, err
	}
	// Flatten the reference channel of every trace into one long series.
	var clean []float64
	for _, tr := range ds.Traces {
		clean = append(clean, tr.Channel(0)...)
	}
	res := &Figure9cResult{}
	selfMI, err := stats.BinnedMI(clean, clean, 16)
	if err != nil {
		return nil, err
	}
	res.CleanSelfMI = selfMI

	for _, mech := range []MechanismKind{MechLaplace, MechDStar} {
		for _, eps := range epsilons {
			noised := make([]float64, len(clean))
			var m obfuscator.Mechanism
			r := rng.New(sc.Seed + 7).Split(fmt.Sprintf("fig9c/%s/%g", mech, eps))
			// A milder sensitivity and a generous clip keep the noise in
			// its analytic regime across the whole sweep: with B_u too
			// tight, tiny ε degenerates to near-constant ceiling noise,
			// which paradoxically preserves MI.
			const sens, clip = 400.0, 200000.0
			if mech == MechLaplace {
				m, err = obfuscator.NewLaplaceMechanism(eps, sens, r)
			} else {
				m, err = obfuscator.NewDStarMechanism(eps, sens, r)
			}
			if err != nil {
				return nil, err
			}
			for i, x := range clean {
				n := m.Noise(int64(i+1), x)
				if n < 0 {
					n = 0
				}
				if n > clip {
					n = clip
				}
				noised[i] = x + n
				if d, ok := m.(*obfuscator.DStarMechanism); ok {
					d.Commit(int64(i+1), n)
				}
			}
			mi, err := stats.BinnedMI(clean, noised, 16)
			if err != nil {
				return nil, err
			}
			res.Points = append(res.Points, Figure9cPoint{Mechanism: mech, Epsilon: eps, MI: mi})
		}
	}
	return res, nil
}

// Render prints the curve.
func (r *Figure9cResult) Render() string {
	out := fmt.Sprintf("Figure 9c: residual mutual information I(X;X') (clean self-MI %.3f bits)\n", r.CleanSelfMI)
	var rows [][]string
	for _, p := range r.Points {
		rows = append(rows, []string{string(p.Mechanism), fmt.Sprintf("%g", p.Epsilon), f3(p.MI)})
	}
	return out + table([]string{"mechanism", "eps", "I(X;X') bits"}, rows)
}
