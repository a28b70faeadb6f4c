// Package attack implements the paper's three HPC side-channel attacks
// (§III) against the simulated SEV world: website fingerprinting (WFA),
// keystroke sniffing (KSA) and model extraction (MEA). Each attack follows
// the paper's abstraction: collect labelled leakage traces X from a
// template VM, train f_θ : X → Y, then predict secrets of the victim VM
// from its traces. The same harness collects *defended* traces by pinning
// an Aegis obfuscator to the victim's vCPU, which drives the defense
// evaluation (Fig. 9).
package attack

import (
	"errors"
	"fmt"

	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/ml"
	"github.com/repro/aegis/internal/obfuscator"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/sev"
	"github.com/repro/aegis/internal/trace"
	"github.com/repro/aegis/internal/workload"
)

// ErrNoDataset is returned when training or evaluation gets no traces.
var ErrNoDataset = errors.New("attack: empty dataset")

// DefaultEventNames are the four monitored events of the paper's attacks
// (§III-B), selected by the profiler's ranking.
func DefaultEventNames() []string {
	return []string{
		"RETIRED_UOPS",
		"LS_DISPATCH",
		"MAB_ALLOCATION_BY_PIPE",
		"DATA_CACHE_REFILLS_FROM_SYSTEM",
	}
}

// Scenario describes one attack data-collection campaign.
type Scenario struct {
	// App is the victim application.
	App workload.App
	// Catalog is the processor's event catalog; the attacks monitor its
	// DefaultEventNames.
	Catalog *hpc.Catalog
	// TracesPerSecret is the number of recordings per secret.
	TracesPerSecret int
	// TraceTicks is the length of each recording (the paper samples 3 s
	// at 1 ms; the simulator default scales to 300 ticks).
	TraceTicks int
	// Seed drives all stochastic behaviour of the campaign.
	Seed uint64
	// World configures the host machine; zero value uses the AMD testbed.
	World sev.Config
}

func (s *Scenario) events() ([]*hpc.Event, error) {
	names := DefaultEventNames()
	out := make([]*hpc.Event, 0, len(names))
	for _, n := range names {
		e, ok := s.Catalog.ByName(n)
		if !ok {
			return nil, fmt.Errorf("attack: catalog has no event %q", n)
		}
		out = append(out, e)
	}
	return out, nil
}

// CollectOne records a single victim trace for the given secret, optionally
// under a defense.
func (s *Scenario) CollectOne(secret string, rep int, defense obfuscator.Factory) (trace.Trace, error) {
	events, err := s.events()
	if err != nil {
		return trace.Trace{}, err
	}
	worldCfg := s.World
	if worldCfg.PhysicalCores == 0 {
		worldCfg = sev.DefaultConfig(s.Seed)
	}
	stream := rng.New(s.Seed).Split("collect/"+secret).SplitN("rep", rep)
	worldCfg.Seed = stream.Uint64()
	runner := workload.NewRunner(s.App.Name(), workload.DefaultLibrary(1), stream.Split("runner"))
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
	g, err := sev.NewGuest(sev.GuestConfig{
		World: worldCfg, VM: sev.VMConfig{VCPUs: 1, SEV: true}, App: runner, Defense: obf,
	})
	if err != nil {
		return trace.Trace{}, err
	}
	return trace.Project(trace.Record(g.World, g.Core, s.TraceTicks), events, stream.Split("monitor"), secret)
}

// Collect records the full labelled dataset: TracesPerSecret recordings per
// secret, optionally under a defense.
func (s *Scenario) Collect(defense obfuscator.Factory) (*trace.Dataset, error) {
	events, err := s.events()
	if err != nil {
		return nil, err
	}
	names := make([]string, len(events))
	for i, e := range events {
		names[i] = e.Name
	}
	ds := &trace.Dataset{EventNames: names}
	for _, secret := range s.App.Secrets() {
		for rep := 0; rep < s.TracesPerSecret; rep++ {
			tr, err := s.CollectOne(secret, rep, defense)
			if err != nil {
				return nil, fmt.Errorf("collect %s rep %d: %w", secret, rep, err)
			}
			ds.Add(tr)
		}
	}
	return ds, nil
}

// Classifier is a trained classification attack (WFA or KSA): an MLP over
// the flattened trace plus pooled per-channel summaries.
type Classifier struct {
	mlp    *ml.MLP
	labels *trace.LabelIndex
	norm   *trace.Normalizer
}

// TrainConfig tunes the training of either attack model.
type TrainConfig struct {
	// Epochs of SGD (paper Fig. 1 trains until the curve flattens); zero
	// uses the attack's default, 25 for a Classifier and 12 for a
	// SequenceAttack.
	Epochs int
	// Seed drives the validation split, initialisation and shuffling.
	Seed uint64
}

// valFraction of each dataset is held out for validation (paper: 0.3).
const valFraction = 0.3

// featurize z-scores a trace with the training normaliser and returns the
// flattened time series plus per-channel pooled summaries (sum, max, and
// burst count, i.e. ticks above 2σ). The pooled features give the MLP the
// translation invariance the paper's CNN gets from convolution+pooling —
// without them a keystroke burst at tick 10 and the same burst at tick 60
// would look unrelated.
func featurize(tr trace.Trace, norm *trace.Normalizer) []float64 {
	cp := tr.Clone()
	norm.Apply(&cp)
	out := cp.Flatten()
	for ch := 0; ch < cp.Events(); ch++ {
		var sum, maxV float64
		bursts := 0.0
		for t := range cp.Data {
			v := cp.Data[t][ch]
			sum += v
			if v > maxV {
				maxV = v
			}
			if v > 2 {
				bursts++
			}
		}
		out = append(out, sum, maxV, bursts)
	}
	return out
}

// TrainClassifier fits the classification attack on a labelled dataset and
// returns the model plus per-epoch training curves (Fig. 1a/1b).
func TrainClassifier(ds *trace.Dataset, cfg TrainConfig) (*Classifier, []ml.EpochStats, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, nil, ErrNoDataset
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 25
	}
	r := rng.New(cfg.Seed).Split("classifier")
	train, val := ds.Split(1-valFraction, r)
	norm, err := trace.FitNormalizer(train)
	if err != nil {
		return nil, nil, err
	}
	labels := trace.NewLabelIndex(ds.Classes())

	build := func(sub *trace.Dataset) ([][]float64, []int) {
		xs := make([][]float64, 0, sub.Len())
		ys := make([]int, 0, sub.Len())
		for _, tr := range sub.Traces {
			xs = append(xs, featurize(tr, norm))
			ys = append(ys, labels.Index(tr.Label))
		}
		return xs, ys
	}
	trainX, trainY := build(train)
	valX, valY := build(val)

	mlpCfg := ml.DefaultMLPConfig(len(trainX[0]), labels.Len())
	mlpCfg.Seed = cfg.Seed + 1
	model, err := ml.NewMLP(mlpCfg)
	if err != nil {
		return nil, nil, err
	}
	stats, err := model.Train(trainX, trainY, cfg.Epochs, valX, valY)
	if err != nil {
		return nil, nil, err
	}
	return &Classifier{mlp: model, labels: labels, norm: norm}, stats, nil
}

// PredictIndex returns the predicted secret of a single trace as its dense
// label index. Bulk evaluation goes through this form so per-trace
// comparisons stay on integers instead of round-tripping index → name →
// index through the label table.
func (c *Classifier) PredictIndex(tr trace.Trace) (int, error) {
	return c.mlp.Predict(featurize(tr, c.norm))
}

// Predict returns the predicted secret of a single trace.
func (c *Classifier) Predict(tr trace.Trace) (string, error) {
	idx, err := c.PredictIndex(tr)
	if err != nil {
		return "", err
	}
	return c.labels.Name(idx), nil
}

// Evaluate returns the attack accuracy on a labelled dataset (the victim
// phase of the paper's attacks).
func (c *Classifier) Evaluate(ds *trace.Dataset) (float64, error) {
	if ds == nil || ds.Len() == 0 {
		return 0, ErrNoDataset
	}
	correct := 0
	for _, tr := range ds.Traces {
		pred, err := c.PredictIndex(tr)
		if err != nil {
			return 0, err
		}
		if pred == c.labels.Index(tr.Label) {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len()), nil
}
