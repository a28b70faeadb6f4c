package experiment

import (
	"fmt"

	"github.com/repro/aegis/internal/attack"
	"github.com/repro/aegis/internal/ml"
	"github.com/repro/aegis/internal/trace"
)

// AttackName identifies one of the three case-study attacks.
type AttackName string

// The three attacks of paper §III.
const (
	WFA AttackName = "WFA"
	KSA AttackName = "KSA"
	MEA AttackName = "MEA"
)

// CurvePoint is one epoch of a Fig. 1 training curve.
type CurvePoint struct {
	Epoch    int
	Loss     float64
	Accuracy float64 // validation accuracy
}

// Figure1Attack is one panel of Fig. 1.
type Figure1Attack struct {
	Attack AttackName
	Curve  []CurvePoint
	// FinalValAcc is the stabilised validation accuracy (paper: 98.72% /
	// 95.21% / 91.8%).
	FinalValAcc float64
	// VictimAcc is the accuracy on freshly collected victim traces
	// (paper: 98.57% / 95.48% / 90.5%).
	VictimAcc float64
	// RandomGuess is the chance baseline for this attack.
	RandomGuess float64
}

// Figure1Result reproduces Fig. 1: training curves and final accuracies of
// the three attacks on clean traces.
type Figure1Result struct {
	Attacks []Figure1Attack
}

// trainedAttacks bundles the clean datasets and trained models so Fig. 9
// experiments can reuse them without re-collecting.
type trainedAttacks struct {
	wfaData *trace.Dataset
	ksaData *trace.Dataset
	meaData *trace.Dataset
	wfa     *attack.Classifier
	ksa     *attack.Classifier
	mea     *attack.SequenceAttack
}

// trainAll collects clean datasets and trains the three attack models.
func trainAll(sc Scale) (*trainedAttacks, *Figure1Result, error) {
	out := &Figure1Result{}
	ta := &trainedAttacks{}

	// WFA.
	wfaSc := scenarioFor(websiteApp(sc), sc, 100)
	wfaData, err := wfaSc.Collect(nil)
	if err != nil {
		return nil, nil, fmt.Errorf("collect WFA: %w", err)
	}
	ta.wfaData = wfaData
	wfaClf, wfaStats, err := attack.TrainClassifier(wfaData, attack.TrainConfig{Epochs: sc.Epochs, Seed: sc.Seed})
	if err != nil {
		return nil, nil, fmt.Errorf("train WFA: %w", err)
	}
	ta.wfa = wfaClf
	victim, err := victimAccuracyClassifier(wfaSc, wfaClf, sc, 2)
	if err != nil {
		return nil, nil, err
	}
	out.Attacks = append(out.Attacks, figure1Panel(WFA, wfaStats, victim,
		1/float64(len(wfaSc.App.Secrets()))))

	// KSA.
	ksaSc := scenarioFor(keystrokeApp(sc), sc, 200)
	ksaData, err := ksaSc.Collect(nil)
	if err != nil {
		return nil, nil, fmt.Errorf("collect KSA: %w", err)
	}
	ta.ksaData = ksaData
	ksaClf, ksaStats, err := attack.TrainClassifier(ksaData, attack.TrainConfig{Epochs: sc.Epochs, Seed: sc.Seed + 1})
	if err != nil {
		return nil, nil, fmt.Errorf("train KSA: %w", err)
	}
	ta.ksa = ksaClf
	victim, err = victimAccuracyClassifier(ksaSc, ksaClf, sc, 2)
	if err != nil {
		return nil, nil, err
	}
	out.Attacks = append(out.Attacks, figure1Panel(KSA, ksaStats, victim,
		1/float64(len(ksaSc.App.Secrets()))))

	// MEA.
	app := dnnApp(sc)
	meaSc := scenarioFor(app, sc, 300)
	meaData, err := meaSc.Collect(nil)
	if err != nil {
		return nil, nil, fmt.Errorf("collect MEA: %w", err)
	}
	ta.meaData = meaData
	meaAtk, meaStats, err := attack.TrainSequenceAttack(meaData, app, attack.TrainConfig{Epochs: sc.SeqEpochs, Seed: sc.Seed + 2})
	if err != nil {
		return nil, nil, fmt.Errorf("train MEA: %w", err)
	}
	ta.mea = meaAtk
	meaVictimSc := *meaSc
	meaVictimSc.Seed += 1000
	meaVictimSc.TracesPerSecret = 2
	victimData, err := meaVictimSc.Collect(nil)
	if err != nil {
		return nil, nil, err
	}
	meaVictim, err := meaAtk.Evaluate(victimData)
	if err != nil {
		return nil, nil, err
	}
	panel := Figure1Attack{Attack: MEA, VictimAcc: meaVictim, RandomGuess: 0}
	for _, st := range meaStats {
		panel.Curve = append(panel.Curve, CurvePoint{Epoch: st.Epoch, Loss: st.TrainLoss, Accuracy: st.ValAcc})
	}
	if len(meaStats) > 0 {
		panel.FinalValAcc = meaStats[len(meaStats)-1].ValAcc
	}
	out.Attacks = append(out.Attacks, panel)

	return ta, out, nil
}

func figure1Panel(name AttackName, stats []ml.EpochStats, victimAcc, chance float64) Figure1Attack {
	panel := Figure1Attack{Attack: name, VictimAcc: victimAcc, RandomGuess: chance}
	for _, st := range stats {
		panel.Curve = append(panel.Curve, CurvePoint{Epoch: st.Epoch, Loss: st.ValLoss, Accuracy: st.ValAcc})
	}
	if len(stats) > 0 {
		panel.FinalValAcc = stats[len(stats)-1].ValAcc
	}
	return panel
}

// victimAccuracyClassifier evaluates a trained classifier on freshly
// collected victim traces.
func victimAccuracyClassifier(sc *attack.Scenario, clf *attack.Classifier, scale Scale, reps int) (float64, error) {
	victimSc := *sc
	victimSc.Seed += 1000
	victimSc.TracesPerSecret = reps
	ds, err := victimSc.Collect(nil)
	if err != nil {
		return 0, err
	}
	return clf.Evaluate(ds)
}

// Figure1 runs the three clean attacks and returns their training curves.
func Figure1(sc Scale) (*Figure1Result, error) {
	_, res, err := trainAll(sc)
	return res, err
}

// Render prints the figure data as series.
func (r *Figure1Result) Render() string {
	out := "Figure 1: attack training curves (validation accuracy per epoch)\n"
	for _, a := range r.Attacks {
		rows := make([][]string, 0, len(a.Curve))
		for _, p := range a.Curve {
			rows = append(rows, []string{
				fmt.Sprintf("%d", p.Epoch), f4(p.Loss), pct(p.Accuracy),
			})
		}
		out += fmt.Sprintf("\n%s (final val %.1f%%, victim %.1f%%, chance %.1f%%)\n",
			a.Attack, a.FinalValAcc*100, a.VictimAcc*100, a.RandomGuess*100)
		out += table([]string{"epoch", "loss", "val acc"}, rows)
	}
	return out
}
