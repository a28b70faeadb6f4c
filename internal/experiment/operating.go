package experiment

import (
	"fmt"
	"sort"

	"github.com/repro/aegis/internal/attack"
)

// OperatingPoint is the recommended ε for one mechanism: the largest ε
// (least noise, least overhead) whose defended attack accuracy stays at or
// below the target. The paper selects these manually — ε = 2⁰ for the
// Laplace mechanism and ε = 2³ for d* (§VIII-D, shaded markers of
// Fig. 10); this harness automates the search.
type OperatingPoint struct {
	Mechanism MechanismKind
	// Epsilon is the chosen budget (0 when no swept ε met the target).
	Epsilon float64
	// Accuracy is the defended attack accuracy at the chosen ε.
	Accuracy float64
	// Met reports whether the target was achievable within the sweep.
	Met bool
}

// OperatingPointResult holds the per-mechanism recommendations.
type OperatingPointResult struct {
	TargetAccuracy float64
	CleanAccuracy  float64
	Points         []OperatingPoint
	// Sweep records every (mechanism, ε, accuracy) measurement made.
	Sweep []DefensePoint
}

// FindOperatingPoints trains the WFA on clean traces and sweeps ε from
// large to small for each mechanism, returning the largest ε that pushes
// the defended accuracy to at most target (the paper's "decreasing the
// attack accuracy to < 5%" criterion uses target = 0.05).
func FindOperatingPoints(sc Scale, target float64, epsilons []float64) (*OperatingPointResult, error) {
	if target <= 0 || target >= 1 {
		return nil, fmt.Errorf("experiment: target accuracy %v out of (0,1)", target)
	}
	if epsilons == nil {
		epsilons = Epsilons()
	}
	sorted := append([]float64(nil), epsilons...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))

	kit, err := BuildDefenseKit(sc)
	if err != nil {
		return nil, err
	}
	app := websiteApp(sc)
	cleanSc := scenarioFor(app, sc, 950)
	cleanDs, err := cleanSc.Collect(nil)
	if err != nil {
		return nil, err
	}
	clf, _, err := attack.TrainClassifier(cleanDs, attack.TrainConfig{Epochs: sc.Epochs, Seed: sc.Seed + 31})
	if err != nil {
		return nil, err
	}
	res := &OperatingPointResult{TargetAccuracy: target}
	cleanAcc, err := clf.Evaluate(cleanDs)
	if err != nil {
		return nil, err
	}
	res.CleanAccuracy = cleanAcc

	for _, mech := range []MechanismKind{MechLaplace, MechDStar} {
		point := OperatingPoint{Mechanism: mech}
		for _, eps := range sorted {
			evalSc := scenarioFor(app, sc, 960+uint64(eps*2048)+hashMech(mech))
			evalSc.TracesPerSecret = victimReps(sc)
			ds, err := evalSc.Collect(kit.Defense(mech, eps))
			if err != nil {
				return nil, err
			}
			acc, err := clf.Evaluate(ds)
			if err != nil {
				return nil, err
			}
			res.Sweep = append(res.Sweep, DefensePoint{
				Mechanism: mech, Epsilon: eps, Attack: WFA, Accuracy: acc,
			})
			if acc <= target {
				point.Epsilon = eps
				point.Accuracy = acc
				point.Met = true
				break // largest ε meeting the target (descending sweep)
			}
		}
		res.Points = append(res.Points, point)
	}
	return res, nil
}

// Point returns the recommendation for a mechanism.
func (r *OperatingPointResult) Point(mech MechanismKind) (OperatingPoint, bool) {
	for _, p := range r.Points {
		if p.Mechanism == mech {
			return p, true
		}
	}
	return OperatingPoint{}, false
}

// Render prints the recommendations.
func (r *OperatingPointResult) Render() string {
	out := fmt.Sprintf("Operating points for target accuracy <= %.0f%% (clean %.1f%%)\n",
		r.TargetAccuracy*100, r.CleanAccuracy*100)
	var rows [][]string
	for _, p := range r.Points {
		eps := "—"
		acc := "—"
		if p.Met {
			eps = fmt.Sprintf("%g", p.Epsilon)
			acc = pct(p.Accuracy)
		}
		rows = append(rows, []string{string(p.Mechanism), eps, acc})
	}
	return out + table([]string{"mechanism", "largest effective eps", "accuracy"}, rows)
}
