package experiment

import (
	"fmt"

	"github.com/repro/aegis/internal/attack"
	"github.com/repro/aegis/internal/trace"
	"github.com/repro/aegis/internal/workload"
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
	wfa     *attack.Classifier
	ksa     *attack.Classifier
	mea     *attack.SequenceAttack
}

// trainAll collects clean datasets and trains the three attack models.
// The classification attacks (WFA, KSA) share one path, each from its own
// app, scenario offset and training seed; MEA trains a sequence model.
func trainAll(sc Scale) (*trainedAttacks, *Figure1Result, error) {
	out := &Figure1Result{}
	ta := &trainedAttacks{}
	for _, a := range []struct {
		name      AttackName
		app       workload.App
		off, seed uint64
		data      **trace.Dataset
		clf       **attack.Classifier
	}{
		{WFA, websiteApp(sc), 100, 0, &ta.wfaData, &ta.wfa},
		{KSA, keystrokeApp(sc), 200, 1, &ta.ksaData, &ta.ksa},
	} {
		scn := scenarioFor(a.app, sc, a.off)
		data, err := scn.Collect(nil)
		if err != nil {
			return nil, nil, fmt.Errorf("collect %s: %w", a.name, err)
		}
		clf, stats, err := attack.TrainClassifier(data, attack.TrainConfig{Epochs: sc.Epochs, Seed: sc.Seed + a.seed})
		if err != nil {
			return nil, nil, fmt.Errorf("train %s: %w", a.name, err)
		}
		victim, err := victimData(scn)
		if err != nil {
			return nil, nil, err
		}
		victimAcc, err := clf.Evaluate(victim)
		if err != nil {
			return nil, nil, err
		}
		*a.data, *a.clf = data, clf
		panel := Figure1Attack{Attack: a.name, VictimAcc: victimAcc, RandomGuess: 1 / float64(len(a.app.Secrets()))}
		for _, st := range stats {
			panel.Curve = append(panel.Curve, CurvePoint{Epoch: st.Epoch, Loss: st.ValLoss, Accuracy: st.ValAcc})
		}
		if len(stats) > 0 {
			panel.FinalValAcc = stats[len(stats)-1].ValAcc
		}
		out.Attacks = append(out.Attacks, panel)
	}

	// MEA.
	app := dnnApp(sc)
	meaSc := scenarioFor(app, sc, 300)
	meaData, err := meaSc.Collect(nil)
	if err != nil {
		return nil, nil, fmt.Errorf("collect MEA: %w", err)
	}
	meaAtk, meaStats, err := attack.TrainSequenceAttack(meaData, app, attack.TrainConfig{Epochs: sc.SeqEpochs, Seed: sc.Seed + 2})
	if err != nil {
		return nil, nil, fmt.Errorf("train MEA: %w", err)
	}
	ta.mea = meaAtk
	victim, err := victimData(meaSc)
	if err != nil {
		return nil, nil, err
	}
	meaVictim, err := meaAtk.Evaluate(victim)
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

// victimData collects two fresh clean victim traces per secret for an
// attack trained on the scenario's traces.
func victimData(scn *attack.Scenario) (*trace.Dataset, error) {
	victim := *scn
	victim.Seed += 1000
	victim.TracesPerSecret = 2
	return victim.Collect(nil)
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
