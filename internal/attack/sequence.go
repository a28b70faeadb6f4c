package attack

import (
	"fmt"

	"github.com/repro/aegis/internal/ml"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/trace"
	"github.com/repro/aegis/internal/workload"
)

// SequenceAttack is the model extraction attack (paper §III-E): a
// bidirectional GRU with a CTC decoder that transcribes the per-tick HPC
// feature sequence into the victim DNN's layer-type sequence.
type SequenceAttack struct {
	model *ml.BiGRUCTC
	norm  *trace.Normalizer
	app   *workload.DNNApp
}

// beamWidth is the CTC prefix beam the sequence attack decodes with.
const beamWidth = 4

// SequenceEpochStats records one MEA training epoch (Fig. 1c curve).
type SequenceEpochStats struct {
	Epoch     int
	TrainLoss float64
	// ValAcc is the mean layer-matching accuracy on the validation set.
	ValAcc float64
}

// layerLabel converts a model's layer sequence into the CTC alphabet.
func layerLabel(app *workload.DNNApp, secret string) ([]int, error) {
	arch, err := app.Arch(secret)
	if err != nil {
		return nil, err
	}
	seq := arch.LayerSequence()
	out := make([]int, len(seq))
	for i, l := range seq {
		out[i] = int(l) - 1 // LayerType starts at 1
	}
	return out, nil
}

// sequenceFeatures normalises a trace into per-tick feature rows.
func sequenceFeatures(tr trace.Trace, norm *trace.Normalizer) [][]float64 {
	cp := tr.Clone()
	norm.Apply(&cp)
	return cp.Data
}

// TrainSequenceAttack fits the MEA model on a labelled dataset of DNN
// inference traces and returns per-epoch statistics.
func TrainSequenceAttack(ds *trace.Dataset, app *workload.DNNApp, cfg TrainConfig) (*SequenceAttack, []SequenceEpochStats, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, nil, ErrNoDataset
	}
	if app == nil {
		return nil, nil, fmt.Errorf("attack: nil DNN app")
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 12
	}
	r := rng.New(cfg.Seed).Split("seq-attack")
	train, val := ds.Split(1-valFraction, r)
	norm, err := trace.FitNormalizer(train)
	if err != nil {
		return nil, nil, err
	}

	classes := len(workload.AllLayerTypes())
	gruCfg := ml.DefaultGRUConfig(train.Traces[0].Events(), classes)
	gruCfg.Seed = cfg.Seed + 1
	model, err := ml.NewBiGRUCTC(gruCfg)
	if err != nil {
		return nil, nil, err
	}
	atk := &SequenceAttack{model: model, norm: norm, app: app}

	// Pre-resolve labels and drop traces whose label cannot align with the
	// trace length (CTC requires T >= L).
	type example struct {
		xs    [][]float64
		label []int
	}
	build := func(sub *trace.Dataset) ([]example, error) {
		var out []example
		for _, tr := range sub.Traces {
			label, err := layerLabel(app, tr.Label)
			if err != nil {
				return nil, err
			}
			if tr.Ticks() < len(label) {
				return nil, fmt.Errorf("attack: trace for %s has %d ticks < %d layers",
					tr.Label, tr.Ticks(), len(label))
			}
			out = append(out, example{xs: sequenceFeatures(tr, norm), label: label})
		}
		return out, nil
	}
	trainEx, err := build(train)
	if err != nil {
		return nil, nil, err
	}

	stats := make([]SequenceEpochStats, 0, cfg.Epochs)
	order := make([]int, len(trainEx))
	for i := range order {
		order[i] = i
	}
	for ep := 0; ep < cfg.Epochs; ep++ {
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var sumLoss float64
		for _, idx := range order {
			loss, err := model.TrainStep(trainEx[idx].xs, trainEx[idx].label)
			if err != nil {
				return nil, nil, err
			}
			sumLoss += loss
		}
		st := SequenceEpochStats{Epoch: ep + 1, TrainLoss: sumLoss / float64(len(trainEx))}
		if val.Len() > 0 {
			acc, err := atk.Evaluate(val)
			if err != nil {
				return nil, nil, err
			}
			st.ValAcc = acc
		}
		stats = append(stats, st)
	}
	return atk, stats, nil
}

// decode transcribes one trace into raw CTC labels (layer type − 1).
func (a *SequenceAttack) decode(tr trace.Trace) ([]int, error) {
	return a.model.DecodeBeam(sequenceFeatures(tr, a.norm), beamWidth)
}

// Evaluate returns the mean layer-matching accuracy over a dataset (the
// paper's MEA metric: statistics of matched layers between prediction and
// label sequences).
func (a *SequenceAttack) Evaluate(ds *trace.Dataset) (float64, error) {
	if ds == nil || ds.Len() == 0 {
		return 0, ErrNoDataset
	}
	var preds, labels [][]int
	for _, tr := range ds.Traces {
		label, err := layerLabel(a.app, tr.Label)
		if err != nil {
			return 0, err
		}
		raw, err := a.decode(tr)
		if err != nil {
			return 0, err
		}
		preds = append(preds, raw)
		labels = append(labels, label)
	}
	return ml.MeanSequenceAccuracy(preds, labels), nil
}
