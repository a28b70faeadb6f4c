package experiment

import (
	"fmt"
	"sync"

	"github.com/repro/aegis/internal/attack"
	"github.com/repro/aegis/internal/faultinject"
	"github.com/repro/aegis/internal/fuzzer"
	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/obfuscator"
	"github.com/repro/aegis/internal/trace"
	"github.com/repro/aegis/internal/workload"
)

// DefenseKit bundles the offline Aegis artefacts shared by the defense
// experiments: the catalog the gadget cover was fuzzed against and the
// deployable recipe (stacked noise segment, reference event, the paper's
// B_u and Δ).
type DefenseKit struct {
	Catalog *hpc.Catalog
	obfuscator.Recipe
}

// kitKey is everything a defense kit depends on: the fuzzer is
// byte-identical at any parallelism and with or without the artifact
// store, so the seed and the candidate budget fix the kit.
type kitKey struct {
	seed       uint64
	candidates int
}

// kitCell builds one kitKey's kit once, however many experiments ask.
type kitCell struct {
	once sync.Once
	kit  *DefenseKit
	err  error
}

// kits memoises BuildDefenseKit for the life of the process (kitKey ->
// *kitCell), so one run's defense experiments share one fuzzed cover.
var kits sync.Map

// BuildDefenseKit runs the offline pipeline (fuzz → confirm → cover →
// stack) over the paper's four monitored events, once per seed and
// candidate budget; callers share the kit and only read it. A failed
// build is not kept, so the next call retries.
func BuildDefenseKit(sc Scale) (*DefenseKit, error) {
	key := kitKey{seed: sc.Seed, candidates: sc.FuzzCandidates}
	v, _ := kits.LoadOrStore(key, &kitCell{})
	cell := v.(*kitCell)
	cell.once.Do(func() { cell.kit, cell.err = buildDefenseKit(sc) })
	if cell.err != nil {
		kits.CompareAndDelete(key, cell)
	}
	return cell.kit, cell.err
}

func buildDefenseKit(sc Scale) (*DefenseKit, error) {
	cat := hpc.NewAMDEpyc7252Catalog(1)
	fcfg, err := sc.fuzzerConfig(sc.FuzzCandidates)
	if err != nil {
		return nil, err
	}
	fz, err := fuzzer.New(amdLegal(), fcfg)
	if err != nil {
		return nil, err
	}
	var events []*hpc.Event
	for _, name := range attack.DefaultEventNames() {
		events = append(events, cat.MustByName(name))
	}
	res, err := fz.Fuzz(events)
	if err != nil {
		return nil, err
	}
	cover, err := fz.MinimalCover(res, events)
	if err != nil {
		return nil, err
	}
	seg := fuzzer.StackSegment(cover)
	if len(seg) == 0 {
		return nil, fmt.Errorf("experiment: fuzzer produced an empty cover segment")
	}
	return &DefenseKit{
		Catalog: cat,
		Recipe: obfuscator.Recipe{
			Segment:     seg,
			RefEvent:    cat.MustByName("RETIRED_UOPS"),
			ClipBound:   obfuscator.DefaultClipBound,
			Sensitivity: obfuscator.DefaultSensitivity,
		},
	}, nil
}

// MechanismKind selects a noise mechanism for defense sweeps.
type MechanismKind string

// Mechanism kinds.
const (
	MechLaplace  MechanismKind = obfuscator.MechanismLaplace
	MechDStar    MechanismKind = obfuscator.MechanismDStar
	MechRandom   MechanismKind = obfuscator.MechanismRandom
	MechConstant MechanismKind = obfuscator.MechanismConstant
)

// Defense builds an obfuscator factory for the kit with the given
// mechanism and parameter (ε for DP mechanisms, the bound/peak for the
// baselines).
func (k *DefenseKit) Defense(kind MechanismKind, param float64) obfuscator.Factory {
	return k.Factory(string(kind), param, param, "defense", faultinject.Config{})
}

// websiteApp returns the scaled-down website application.
func websiteApp(sc Scale) *workload.WebsiteApp {
	sites := workload.Websites()
	if sc.Sites > 0 && sc.Sites < len(sites) {
		sites = sites[:sc.Sites]
	}
	return &workload.WebsiteApp{Sites: sites}
}

// keystrokeApp returns the scaled-down keystroke application.
func keystrokeApp(sc Scale) *workload.KeystrokeApp {
	return &workload.KeystrokeApp{WindowTicks: sc.TraceTicks, MaxKeys: sc.KeyClasses}
}

// dnnApp returns the scaled-down DNN application, picking models spread
// across the three zoo families.
func dnnApp(sc Scale) *workload.DNNApp {
	zoo := workload.ModelZoo()
	if sc.Models <= 0 || sc.Models >= len(zoo) {
		return &workload.DNNApp{}
	}
	models := make([]workload.ModelArch, 0, sc.Models)
	// Stride through the zoo so vgg/resnet/mobile families all appear.
	stride := len(zoo) / sc.Models
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < len(zoo) && len(models) < sc.Models; i += stride {
		models = append(models, zoo[i])
	}
	return &workload.DNNApp{Models: models}
}

// scenarioFor builds the collection scenario of one application.
func scenarioFor(app workload.App, sc Scale, seedOffset uint64) *attack.Scenario {
	return &attack.Scenario{
		App:             app,
		Catalog:         hpc.NewAMDEpyc7252Catalog(1),
		TracesPerSecret: sc.TracesPerSecret,
		TraceTicks:      sc.TraceTicks,
		Seed:            sc.Seed + seedOffset,
	}
}

// cleanAttacker trains the WFA classifier on a clean dataset with the
// scale's epochs and seed sc.Seed+seedOffset, and scores it on that same
// dataset: the reference attacker a defense experiment evaluates against.
func cleanAttacker(ds *trace.Dataset, sc Scale, seedOffset uint64) (*attack.Classifier, float64, error) {
	clf, _, err := attack.TrainClassifier(ds, attack.TrainConfig{Epochs: sc.Epochs, Seed: sc.Seed + seedOffset})
	if err != nil {
		return nil, 0, err
	}
	acc, err := clf.Evaluate(ds)
	if err != nil {
		return nil, 0, err
	}
	return clf, acc, nil
}
