package experiment

import (
	"testing"
)

// The end-to-end defense experiments are the heaviest tests in the
// repository; they run at TestScale with truncated ε sweeps and are
// skipped under -short.

func TestFigure1AttacksSucceedOnCleanTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("full attack training skipped in -short mode")
	}
	sc := TestScale(11)
	res, err := Figure1(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Attacks) != 3 {
		t.Fatalf("attacks = %d", len(res.Attacks))
	}
	for _, a := range res.Attacks {
		if len(a.Curve) == 0 {
			t.Errorf("%s: empty training curve", a.Attack)
			continue
		}
		// Paper Fig. 1: accuracy climbs during training and the victim
		// accuracy lands far above chance.
		if a.FinalValAcc < a.Curve[0].Accuracy {
			t.Errorf("%s: accuracy fell during training (%v -> %v)",
				a.Attack, a.Curve[0].Accuracy, a.FinalValAcc)
		}
		switch a.Attack {
		case WFA, KSA:
			if a.VictimAcc <= 2*a.RandomGuess {
				t.Errorf("%s: victim accuracy %v not well above chance %v",
					a.Attack, a.VictimAcc, a.RandomGuess)
			}
		case MEA:
			if a.VictimAcc < 0.25 {
				t.Errorf("MEA victim accuracy = %v, want > 0.25 at test scale", a.VictimAcc)
			}
		}
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

func TestFigure9aDefenseCollapsesAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("defense sweep skipped in -short mode")
	}
	sc := TestScale(12)
	res, err := Figure9a(sc, []float64{0.125, 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, mech := range []MechanismKind{MechLaplace, MechDStar} {
		for _, a := range []AttackName{WFA, KSA} {
			strong := defenseAccuracy(res.Points, mech, 0.125, a)
			weak := defenseAccuracy(res.Points, mech, 8, a)
			clean := res.CleanAccuracy[a]
			// Paper Fig. 9a remark 1: both mechanisms collapse the attack;
			// remark 2: larger ε leaves more accuracy.
			if strong > clean {
				t.Errorf("%s/%s: defended accuracy %v above clean %v", mech, a, strong, clean)
			}
			if strong > weak+0.15 {
				t.Errorf("%s/%s: eps=0.125 accuracy %v well above eps=8 %v (not monotone)",
					mech, a, strong, weak)
			}
			guess := res.RandomGuess[a]
			if strong > clean-0.2 && strong > guess+0.35 {
				t.Errorf("%s/%s: strong defense accuracy %v shows no collapse (clean %v, chance %v)",
					mech, a, strong, clean, guess)
			}
		}
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

func TestFigure10OverheadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead sweep skipped in -short mode")
	}
	sc := TestScale(13)
	res, err := Figure10(sc, []float64{0.25, 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range []string{"website", "dnn"} {
		for _, mech := range []MechanismKind{MechLaplace, MechDStar} {
			strong, ok := res.Point(mech, 0.25, app)
			if !ok {
				t.Fatalf("missing point %s/%s", mech, app)
			}
			weak, ok := res.Point(mech, 8, app)
			if !ok {
				t.Fatalf("missing point %s/%s", mech, app)
			}
			// Paper Fig. 10: smaller ε costs more.
			if strong.LatencyOverhead < weak.LatencyOverhead-0.05 {
				t.Errorf("%s/%s: eps=0.25 latency %v below eps=8 %v",
					mech, app, strong.LatencyOverhead, weak.LatencyOverhead)
			}
			if strong.LatencyOverhead < 0 {
				t.Errorf("%s/%s: negative latency overhead %v", mech, app, strong.LatencyOverhead)
			}
			// CPU usage under defense must not drop below clean.
			if strong.CPUUsageDefended < strong.CPUUsageClean-0.02 {
				t.Errorf("%s/%s: defended CPU %v below clean %v",
					mech, app, strong.CPUUsageDefended, strong.CPUUsageClean)
			}
		}
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

func TestFigure11RandomNoiseWeakerThanDP(t *testing.T) {
	if testing.Short() {
		t.Skip("random-noise sweep skipped in -short mode")
	}
	sc := TestScale(14)
	res, err := Figure11(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Paper Fig. 11: small random bounds leave high accuracy; the paper's
	// 0.1p bound leaves ~32% more accuracy than the DP noise. Injected
	// counts grow with the bound.
	if res.Points[0].InjectedCounts >= res.Points[4].InjectedCounts {
		t.Errorf("injected counts not increasing with bound: %v .. %v",
			res.Points[0].InjectedCounts, res.Points[4].InjectedCounts)
	}
	// At the smallest bound, random noise must be weaker than Laplace.
	if res.Points[0].Accuracy < res.LaplaceAccuracy-0.05 {
		t.Errorf("0.1p random noise accuracy %v below laplace %v — random should be weaker",
			res.Points[0].Accuracy, res.LaplaceAccuracy)
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

func TestConstantOutputCostsMoreThanLaplace(t *testing.T) {
	if testing.Short() {
		t.Skip("constant-output comparison skipped in -short mode")
	}
	sc := TestScale(15)
	res, err := ConstantOutputComparison(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Paper §IX-A: constant output needs ~18× more injected noise.
	if res.Ratio() <= 1 {
		t.Errorf("constant/laplace injected ratio = %v, want > 1", res.Ratio())
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

func TestFigure9bAdaptiveAttacker(t *testing.T) {
	if testing.Short() {
		t.Skip("adaptive sweep skipped in -short mode")
	}
	sc := TestScale(16)
	sc.Sites = 3
	sc.KeyClasses = 3
	res, err := Figure9b(sc, []float64{1.0 / 256, 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, mech := range []MechanismKind{MechLaplace, MechDStar} {
		for _, a := range []AttackName{WFA, KSA} {
			strong := defenseAccuracy(res.Points, mech, 1.0/256, a)
			weak := defenseAccuracy(res.Points, mech, 8, a)
			// Paper Fig. 9b: smaller ε still suppresses the adaptive
			// attacker (allow sampling slack at test scale).
			if strong > weak+0.25 {
				t.Errorf("%s/%s: adaptive accuracy at tiny eps %v above large eps %v",
					mech, a, strong, weak)
			}
		}
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

func TestMultipleTriesAnalysis(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple-tries analysis skipped in -short mode")
	}
	sc := TestScale(17)
	sc.Sites = 4
	res, err := MultipleTriesAnalysis(sc, []int{1, 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.CleanAccuracy < 0.5 {
		t.Fatalf("clean accuracy = %v, attack did not train", res.CleanAccuracy)
	}
	lap1 := res.Accuracy("laplace", 1)
	lapN := res.Accuracy("laplace", 6)
	secN := res.Accuracy("laplace+secret", 6)
	if lap1 < 0 || lapN < 0 || secN < 0 {
		t.Fatal("missing points")
	}
	// §IX-B shape: averaging helps the attacker against plain DP noise...
	if lapN < lap1-0.1 {
		t.Errorf("averaging hurt the attacker: %v -> %v", lap1, lapN)
	}
	// ...but the secret-dependent constant keeps accuracy at or below the
	// averaged plain-noise level.
	if secN > lapN+0.1 {
		t.Errorf("secret offset accuracy %v above plain averaged %v", secN, lapN)
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

func TestFindOperatingPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("operating-point sweep skipped in -short mode")
	}
	sc := TestScale(18)
	res, err := FindOperatingPoints(sc, 0.4, []float64{0.125, 2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.CleanAccuracy < 0.5 {
		t.Fatalf("clean accuracy = %v", res.CleanAccuracy)
	}
	for _, mech := range []MechanismKind{MechLaplace, MechDStar} {
		p, ok := res.Point(mech)
		if !ok {
			t.Fatalf("no point for %s", mech)
		}
		if !p.Met {
			t.Errorf("%s: no epsilon in the sweep met target 0.4", mech)
			continue
		}
		if p.Accuracy > 0.4 {
			t.Errorf("%s: chosen eps %v has accuracy %v above target", mech, p.Epsilon, p.Accuracy)
		}
	}
	// The paper's comparison: d*'s largest effective ε is at least the
	// Laplace one (d* gives stronger privacy at equal ε).
	lap, _ := res.Point(MechLaplace)
	dst, _ := res.Point(MechDStar)
	if lap.Met && dst.Met && dst.Epsilon < lap.Epsilon {
		t.Errorf("d* effective eps %v below laplace %v", dst.Epsilon, lap.Epsilon)
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
	if _, err := FindOperatingPoints(sc, 0, nil); err == nil {
		t.Error("target 0 accepted")
	}
}

func TestCacheOccupancyExtension(t *testing.T) {
	if testing.Short() {
		t.Skip("cache-occupancy extension skipped in -short mode")
	}
	sc := TestScale(19)
	sc.Sites = 4
	sc.TracesPerSecret = 8
	res, err := CacheOccupancyExtension(sc, 0.125)
	if err != nil {
		t.Fatal(err)
	}
	// The occupancy channel works at all: clean accuracy well above
	// chance despite never touching the victim's core or HPCs.
	if res.CleanAccuracy < res.RandomGuess*2 {
		t.Errorf("occupancy attack clean accuracy %v not above 2x chance %v",
			res.CleanAccuracy, res.RandomGuess)
	}
	// Aegis's gadget injections perturb the shared cache too: the same
	// defense transfers to this non-HPC channel.
	if res.DefendedAccuracy >= res.CleanAccuracy {
		t.Errorf("defense did not reduce occupancy attack: %v -> %v",
			res.CleanAccuracy, res.DefendedAccuracy)
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

func TestFigure8AppComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling sweep skipped in -short mode")
	}
	sc := TestScale(20)
	sc.RankRepeats = 3
	res, err := Figure8(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("series = %d", len(res.Series))
	}
	byApp := map[string]Figure8Series{}
	for _, s := range res.Series {
		byApp[s.App] = s
		if len(s.MI) == 0 {
			t.Fatalf("%s: empty MI series", s.App)
		}
		// Sorted descending.
		for i := 1; i < len(s.MI); i++ {
			if s.MI[i] > s.MI[i-1]+1e-9 {
				t.Fatalf("%s: MI not sorted", s.App)
			}
		}
		if len(s.Top) == 0 {
			t.Errorf("%s: no top events", s.App)
		}
	}
	// Paper Fig. 8 observation: the DNN curve falls slower than the
	// keystroke curve (more vulnerable events). Compare median MI
	// relative to each app's ceiling (log2 of its class count).
	if res.Render() == "" {
		t.Error("empty render")
	}
}

// defenseAccuracy returns the recorded accuracy of a Figure 9a/9b point
// (0 if absent).
func defenseAccuracy(points []DefensePoint, mech MechanismKind, eps float64, a AttackName) float64 {
	for _, p := range points {
		if p.Mechanism == mech && p.Epsilon == eps && p.Attack == a {
			return p.Accuracy
		}
	}
	return 0
}

// MI returns the recorded MI for a point (-1 if absent).
func (r *Figure9cResult) MI(mech MechanismKind, eps float64) float64 {
	for _, p := range r.Points {
		if p.Mechanism == mech && p.Epsilon == eps {
			return p.MI
		}
	}
	return -1
}

// Accuracy returns the recorded point (-1 if absent).
func (r *MultipleTriesResult) Accuracy(defense string, averaged int) float64 {
	for _, p := range r.Points {
		if p.Defense == defense && p.Averaged == averaged {
			return p.Accuracy
		}
	}
	return -1
}

// Point returns the recorded overhead point.
func (r *Figure10Result) Point(mech MechanismKind, eps float64, app string) (OverheadPoint, bool) {
	for _, p := range r.Points {
		if p.Mechanism == mech && p.Epsilon == eps && p.App == app {
			return p, true
		}
	}
	return OverheadPoint{}, false
}
