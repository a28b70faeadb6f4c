package attack

import (
	"errors"
	"testing"

	"github.com/repro/aegis/internal/fuzzer"
	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/obfuscator"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/sev"
	"github.com/repro/aegis/internal/trace"
	"github.com/repro/aegis/internal/workload"
)

func wfaScenario(seed uint64) *Scenario {
	return &Scenario{
		App: &workload.WebsiteApp{Sites: []string{
			"google.com", "youtube.com", "facebook.com", "netflix.com", "github.com",
		}},
		Catalog:         hpc.NewAMDEpyc7252Catalog(1),
		TracesPerSecret: 10,
		TraceTicks:      100,
		Seed:            seed,
	}
}

func TestCollectDataset(t *testing.T) {
	sc := wfaScenario(1)
	sc.TracesPerSecret = 2
	sc.TraceTicks = 40
	ds, err := sc.Collect(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 10 {
		t.Fatalf("dataset size = %d, want 10", ds.Len())
	}
	if got := len(ds.Classes()); got != 5 {
		t.Errorf("classes = %d, want 5", got)
	}
	if ds.Traces[0].Ticks() != 40 || ds.Traces[0].Events() != 4 {
		t.Errorf("trace dims = %dx%d", ds.Traces[0].Ticks(), ds.Traces[0].Events())
	}
}

func TestCollectErrors(t *testing.T) {
	sc := wfaScenario(2)
	sc.Catalog = &hpc.Catalog{Processor: "no events"} // lacks every default event
	if _, err := sc.Collect(nil); err == nil {
		t.Error("unknown event accepted")
	}
}

func TestWFACleanAttackSucceeds(t *testing.T) {
	// The headline of paper §III-C: with clean traces, website
	// fingerprinting is highly accurate.
	sc := wfaScenario(3)
	ds, err := sc.Collect(nil)
	if err != nil {
		t.Fatal(err)
	}
	clf, stats, err := TrainClassifier(ds, TrainConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	final := stats[len(stats)-1]
	if final.ValAcc < 0.7 {
		t.Errorf("clean WFA val accuracy = %v, want > 0.7 (paper: 0.99)", final.ValAcc)
	}
	// Training curve shape: accuracy improves from the first epoch.
	if final.TrainAcc <= stats[0].TrainAcc {
		t.Errorf("training accuracy did not improve: %v -> %v", stats[0].TrainAcc, final.TrainAcc)
	}
	if clf.labels.Len() != 5 {
		t.Errorf("classes = %d", clf.labels.Len())
	}
}

func TestKSACleanAttack(t *testing.T) {
	sc := &Scenario{
		App:             &workload.KeystrokeApp{WindowTicks: 100, MaxKeys: 4},
		Catalog:         hpc.NewAMDEpyc7252Catalog(1),
		TracesPerSecret: 12,
		TraceTicks:      100,
		Seed:            4,
	}
	ds, err := sc.Collect(nil)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := TrainClassifier(ds, TrainConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	final := stats[len(stats)-1]
	// 4 key-count classes; random guess = 0.25.
	if final.ValAcc < 0.5 {
		t.Errorf("clean KSA val accuracy = %v, want > 0.5 (paper: 0.95)", final.ValAcc)
	}
}

func testDefense(t *testing.T, epsilon float64) obfuscator.Factory {
	t.Helper()
	legal := isa.Cleanup(isa.SpecAMDEpyc(1), isa.AMDEpycFeatures()).Legal
	fcfg := fuzzer.DefaultConfig(1)
	fcfg.CandidatesPerEvent = 150
	f, err := fuzzer.New(legal, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	cat := hpc.NewAMDEpyc7252Catalog(1)
	events := []*hpc.Event{
		cat.MustByName("RETIRED_UOPS"),
		cat.MustByName("LS_DISPATCH"),
		cat.MustByName("MAB_ALLOCATION_BY_PIPE"),
		cat.MustByName("DATA_CACHE_REFILLS_FROM_SYSTEM"),
	}
	res, err := f.Fuzz(events)
	if err != nil {
		t.Fatal(err)
	}
	cover, err := f.MinimalCover(res, events)
	if err != nil {
		t.Fatal(err)
	}
	seg := fuzzer.StackSegment(cover)
	ref := cat.MustByName("RETIRED_UOPS")
	return func(seed uint64) (*obfuscator.Obfuscator, error) {
		mech, err := obfuscator.NewLaplaceMechanism(epsilon, 1500, rng.New(seed).Split("mech"))
		if err != nil {
			return nil, err
		}
		return obfuscator.New(obfuscator.Config{
			Mechanism: mech,
			Segment:   seg,
			RefEvent:  ref,
			ClipBound: 20000,
			Seed:      seed,
		})
	}
}

func TestDefenseReducesAttackAccuracy(t *testing.T) {
	// Fig. 9a shape at one operating point: a clean-trained attacker's
	// accuracy collapses on defended traces.
	sc := wfaScenario(5)
	clean, err := sc.Collect(nil)
	if err != nil {
		t.Fatal(err)
	}
	clf, _, err := TrainClassifier(clean, TrainConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cleanAcc, err := clf.Evaluate(clean)
	if err != nil {
		t.Fatal(err)
	}

	defended := wfaScenario(6)
	defended.TracesPerSecret = 4
	ds, err := defended.Collect(testDefense(t, 0.125))
	if err != nil {
		t.Fatal(err)
	}
	defAcc, err := clf.Evaluate(ds)
	if err != nil {
		t.Fatal(err)
	}
	if defAcc >= cleanAcc {
		t.Errorf("defense did not reduce accuracy: clean %v, defended %v", cleanAcc, defAcc)
	}
	if defAcc > 0.6 {
		t.Errorf("defended accuracy = %v, want a collapse toward random guess (0.2)", defAcc)
	}
}

func TestMEACleanAttack(t *testing.T) {
	zoo := workload.ModelZoo()
	app := &workload.DNNApp{Models: []workload.ModelArch{zoo[0], zoo[10], zoo[20]}}
	sc := &Scenario{
		App:             app,
		Catalog:         hpc.NewAMDEpyc7252Catalog(1),
		TracesPerSecret: 8,
		TraceTicks:      120,
		Seed:            7,
	}
	ds, err := sc.Collect(nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := TrainConfig{Epochs: 8, Seed: 7}
	atk, stats, err := TrainSequenceAttack(ds, app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 8 {
		t.Fatalf("epochs recorded = %d", len(stats))
	}
	acc, err := atk.Evaluate(ds)
	if err != nil {
		t.Fatal(err)
	}
	// A blind predictor that guesses nothing scores 0; layer-sequence
	// accuracy must show real structure is being recovered.
	if acc < 0.3 {
		t.Errorf("MEA accuracy = %v, want > 0.3 at test scale (paper: 0.92 at full scale)", acc)
	}
	// Decoding emits CTC labels, each one a layer type minus one.
	raw, err := atk.decode(ds.Traces[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range raw {
		if l := workload.LayerType(v + 1); l < workload.LayerConv || l > workload.LayerSoftmax {
			t.Errorf("decoded layer %v out of range", l)
		}
	}
}

func TestTrainClassifierErrors(t *testing.T) {
	if _, _, err := TrainClassifier(nil, TrainConfig{Seed: 1}); !errors.Is(err, ErrNoDataset) {
		t.Errorf("nil dataset error = %v", err)
	}
}

func TestTrainSequenceAttackErrors(t *testing.T) {
	if _, _, err := TrainSequenceAttack(nil, &workload.DNNApp{}, TrainConfig{Seed: 1}); !errors.Is(err, ErrNoDataset) {
		t.Errorf("nil dataset error = %v", err)
	}
}

func TestCryptoKeyAttackAndDefense(t *testing.T) {
	// Future-work extension (paper §X): stealing cryptographic keys. The
	// square-and-multiply workload leaks the exponent pattern through the
	// HPC trace; Aegis suppresses it.
	app := &workload.CryptoApp{NumKeys: 6}
	sc := &Scenario{
		App:             app,
		Catalog:         hpc.NewAMDEpyc7252Catalog(1),
		TracesPerSecret: 10,
		TraceTicks:      90,
		Seed:            33,
	}
	ds, err := sc.Collect(nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := TrainConfig{Epochs: 20, Seed: 33}
	clf, stats, err := TrainClassifier(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	final := stats[len(stats)-1]
	// 6 keys, chance ~17%.
	if final.ValAcc < 0.5 {
		t.Errorf("clean key-recovery val accuracy = %v, want > 0.5", final.ValAcc)
	}

	defended := &Scenario{
		App:             app,
		Catalog:         sc.Catalog,
		TracesPerSecret: 4,
		TraceTicks:      90,
		Seed:            44,
	}
	dds, err := defended.Collect(testDefense(t, 0.125))
	if err != nil {
		t.Fatal(err)
	}
	defAcc, err := clf.Evaluate(dds)
	if err != nil {
		t.Fatal(err)
	}
	cleanAcc, err := clf.Evaluate(ds)
	if err != nil {
		t.Fatal(err)
	}
	if defAcc >= cleanAcc {
		t.Errorf("defense did not reduce key recovery: clean %v, defended %v", cleanAcc, defAcc)
	}
}

func TestWFAOnIntelPlatform(t *testing.T) {
	// Aegis is "unified" across processors (paper §IV); the same attack
	// and collection stack works against the Intel catalog and platform.
	world := sev.DefaultConfig(70)
	world.Processor = "Intel Xeon E5-1650"
	sc := &Scenario{
		App: &workload.WebsiteApp{Sites: []string{
			"google.com", "youtube.com", "github.com",
		}},
		Catalog:         hpc.NewIntelXeonE51650Catalog(1),
		TracesPerSecret: 8,
		TraceTicks:      80,
		Seed:            70,
		World:           world,
	}
	ds, err := sc.Collect(nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := TrainConfig{Epochs: 15, Seed: 70}
	_, stats, err := TrainClassifier(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if final := stats[len(stats)-1]; final.ValAcc < 0.6 {
		t.Errorf("intel-platform WFA val accuracy = %v, want > 0.6", final.ValAcc)
	}
}

func TestMonitoringWrongCoreSeesNoSignal(t *testing.T) {
	// Threat-model sanity: a host monitor on a core NOT backing the
	// victim's vCPU observes (almost) nothing — the side channel is per
	// physical core.
	sc := wfaScenario(71)
	sc.TracesPerSecret = 1
	sc.TraceTicks = 60
	// Collect normally first to know the victim core's signal level.
	tr, err := sc.CollectOne("google.com", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	victimTotal := channelTotal(tr, 0)
	if victimTotal < 1000 {
		t.Fatalf("victim trace total = %v, workload too quiet", victimTotal)
	}

	// Now monitor an unrelated core in a fresh world with the same load.
	cfg := sev.DefaultConfig(71)
	world := sev.NewWorld(cfg)
	vm, err := world.LaunchVM(sev.VMConfig{VCPUs: 1, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	runner := workload.NewRunner("browser", workload.DefaultLibrary(1), rng.New(71).Split("r"))
	runner.Enqueue(workload.WebsiteJob("google.com", rng.New(71).Split("l")))
	if err := vm.AddProcess(0, runner); err != nil {
		t.Fatal(err)
	}
	victimCore, err := vm.PhysicalCore(0)
	if err != nil {
		t.Fatal(err)
	}
	otherIdx := (victimCore + 1) % cfg.PhysicalCores
	otherCore, err := world.Core(otherIdx)
	if err != nil {
		t.Fatal(err)
	}
	cat := hpc.NewAMDEpyc7252Catalog(1)
	col, err := trace.NewCollector(otherCore, []*hpc.Event{cat.MustByName("RETIRED_UOPS")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := trace.CollectDuring(world, col, 60, "google.com")
	if err != nil {
		t.Fatal(err)
	}
	if wrongTotal := channelTotal(wrong, 0); wrongTotal > victimTotal/100 {
		t.Errorf("wrong-core monitor saw %v counts vs victim %v", wrongTotal, victimTotal)
	}
}

// channelTotal sums channel e of a trace.
func channelTotal(tr trace.Trace, e int) float64 {
	var sum float64
	for _, v := range tr.Channel(e) {
		sum += v
	}
	return sum
}
