package experiment

import (
	"fmt"

	"github.com/repro/aegis/internal/faultinject"
	"github.com/repro/aegis/internal/obfuscator"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/trace"
)

// MultipleTriesPoint is one (defense, averaged-trace-count) accuracy
// measurement of the §IX-B analysis.
type MultipleTriesPoint struct {
	Defense  string // "laplace" or "laplace+secret"
	Averaged int    // traces averaged per prediction
	Accuracy float64
}

// MultipleTriesResult reproduces the paper's §IX-B discussion: an attacker
// who can collect several traces of the same secret averages the DP noise
// away; attaching a constant secret-dependent noise term defeats the
// averaging because the residual still depends on a value the attacker
// cannot know.
type MultipleTriesResult struct {
	CleanAccuracy float64
	Points        []MultipleTriesPoint
}

// averageTraces element-wise averages n traces of the same secret and then
// subtracts the attacker's pooled per-channel noise estimate (the mean
// channel shift of the whole defended corpus relative to the clean
// reference). Averaging cancels the zero-mean part of the DP noise; the
// pooled subtraction removes the constant part that is *common to all
// secrets*. A secret-dependent constant survives both steps because the
// attacker cannot estimate it per secret.
func averageTraces(traces []trace.Trace, pooledShift []float64) trace.Trace {
	if len(traces) == 0 {
		return trace.Trace{}
	}
	ticks, events := traces[0].Ticks(), traces[0].Events()
	out := trace.Trace{Label: traces[0].Label, Data: make([][]float64, ticks)}
	for t := 0; t < ticks; t++ {
		row := make([]float64, events)
		for _, tr := range traces {
			for e := 0; e < events; e++ {
				row[e] += tr.Data[t][e]
			}
		}
		for e := range row {
			row[e] = row[e]/float64(len(traces)) - pooledShift[e]
			if row[e] < 0 {
				row[e] = 0
			}
		}
		out.Data[t] = row
	}
	return out
}

// channelMeans returns the per-channel means over a dataset.
func channelMeans(ds *trace.Dataset) []float64 {
	if ds.Len() == 0 {
		return nil
	}
	events := ds.Traces[0].Events()
	out := make([]float64, events)
	var count float64
	for _, tr := range ds.Traces {
		for _, row := range tr.Data {
			for e, v := range row {
				out[e] += v
			}
			count++
		}
	}
	for e := range out {
		out[e] /= count
	}
	return out
}

// MultipleTriesAnalysis trains the WFA on clean traces and evaluates the
// averaging attacker against the plain Laplace defense and against Laplace
// with a secret-dependent constant offset.
func MultipleTriesAnalysis(sc Scale, averagedCounts []int) (*MultipleTriesResult, error) {
	if averagedCounts == nil {
		averagedCounts = []int{1, 4, 8}
	}
	kit, err := BuildDefenseKit(sc)
	if err != nil {
		return nil, err
	}
	app := websiteApp(sc)
	cleanDs, err := scenarioFor(app, sc, 900).Collect(nil)
	if err != nil {
		return nil, err
	}
	clf, cleanAcc, err := cleanAttacker(cleanDs, sc, 21)
	if err != nil {
		return nil, err
	}
	res := &MultipleTriesResult{CleanAccuracy: cleanAcc}
	refMeans := channelMeans(cleanDs)

	maxAvg := 0
	for _, n := range averagedCounts {
		if n > maxAvg {
			maxAvg = n
		}
	}

	// defense builders: plain laplace vs laplace + secret offset. The
	// offset is derived inside the VM from the running secret.
	mkDefense := func(withOffset bool, secret string) obfuscator.Factory {
		return func(seed uint64) (*obfuscator.Obfuscator, error) {
			r := rng.New(seed).Split("multitries")
			base, err := obfuscator.NewLaplaceMechanism(1, kit.Sensitivity, r)
			if err != nil {
				return nil, err
			}
			var mech obfuscator.Mechanism = base
			if withOffset {
				mech, err = obfuscator.NewSecretDependentMechanism(
					base, rng.HashString(secret), 2*kit.Sensitivity)
				if err != nil {
					return nil, err
				}
			}
			return kit.Deploy(mech, seed, faultinject.Config{})
		}
	}

	const groups = 2 // disjoint averaging groups per secret
	for _, d := range []struct {
		name       string
		withOffset bool
		repBase    int
	}{
		{"laplace", false, 0},
		{"laplace+secret", true, 1000},
	} {
		// Collect groups×maxAvg defended traces per secret.
		perSecret := make(map[string][]trace.Trace)
		collectSc := scenarioFor(app, sc, 910)
		for _, secret := range app.Secrets() {
			for rep := 0; rep < groups*maxAvg; rep++ {
				tr, err := collectSc.CollectOne(secret, d.repBase+rep, mkDefense(d.withOffset, secret))
				if err != nil {
					return nil, err
				}
				perSecret[secret] = append(perSecret[secret], tr)
			}
		}
		// Pooled noise estimate: the attacker compares his defended
		// corpus against the clean template corpus.
		defendedDs := &trace.Dataset{}
		for _, traces := range perSecret {
			for _, tr := range traces {
				defendedDs.Add(tr)
			}
		}
		pooled := channelMeans(defendedDs)
		shift := make([]float64, len(pooled))
		for e := range shift {
			shift[e] = pooled[e] - refMeans[e]
			if shift[e] < 0 {
				shift[e] = 0
			}
		}

		for _, n := range averagedCounts {
			correct, total := 0, 0
			for secret, traces := range perSecret {
				for g := 0; g < groups; g++ {
					lo := g * n
					if lo+n > len(traces) {
						break
					}
					avg := averageTraces(traces[lo:lo+n], shift)
					pred, err := clf.Predict(avg)
					if err != nil {
						return nil, err
					}
					if pred == secret {
						correct++
					}
					total++
				}
			}
			res.Points = append(res.Points, MultipleTriesPoint{
				Defense:  d.name,
				Averaged: n,
				Accuracy: float64(correct) / float64(total),
			})
		}
	}
	return res, nil
}

// Render prints the analysis.
func (r *MultipleTriesResult) Render() string {
	out := fmt.Sprintf("Multiple-tries analysis (§IX-B); clean accuracy %.1f%%\n", r.CleanAccuracy*100)
	var rows [][]string
	for _, p := range r.Points {
		rows = append(rows, []string{p.Defense, fmt.Sprintf("%d", p.Averaged), pct(p.Accuracy)})
	}
	return out + table([]string{"defense", "averaged traces", "accuracy"}, rows)
}
