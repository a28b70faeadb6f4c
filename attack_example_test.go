package aegis_test

import (
	"fmt"
	"strings"

	aegis "github.com/repro/aegis"
	"github.com/repro/aegis/internal/attack"
	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/trace"
	"github.com/repro/aegis/internal/workload"
)

// The attack examples share one shape: a malicious hypervisor trains an
// attack on HPC traces of a template VM it controls, then attacks fresh
// traces of the victim VM, first undefended and then protected by Aegis.

// evaluator is a trained attack: a classifier or the MEA transcriber.
type evaluator interface {
	Evaluate(ds *trace.Dataset) (float64, error)
}

// victimAccuracy collects traces of the victim VM (the scenario at another
// seed, traces recordings per secret), protected by defense unless it is
// nil, and returns atk's accuracy on them.
func victimAccuracy(atk evaluator, sc attack.Scenario, seed uint64, traces int, defense aegis.DefenseFactory) (float64, error) {
	sc.Seed = seed
	sc.TracesPerSecret = traces
	ds, err := sc.Collect(defense)
	if err != nil {
		return 0, err
	}
	return atk.Evaluate(ds)
}

// victimDefense fuzzes gadgets for the attacked events and builds the
// victim's Aegis defense.
func victimDefense(seed uint64, mechanism string, param float64) (aegis.DefenseFactory, error) {
	fw, err := aegis.New(aegis.Config{Seed: seed, FuzzCandidates: 300})
	if err != nil {
		return nil, err
	}
	gadgets, err := fw.Fuzz(attack.DefaultEventNames())
	if err != nil {
		return nil, err
	}
	return fw.NewDefense(gadgets, mechanism, param)
}

// Example_websiteFingerprinting is the WFA of paper §III-C: the host
// watches four HPC events of the core backing the guest's vCPU while a
// browser inside loads websites, and a classifier predicts the site.
func Example_websiteFingerprinting() {
	sites := workload.Websites()[:6]
	sc := attack.Scenario{
		App:             &workload.WebsiteApp{Sites: sites},
		Catalog:         hpc.NewAMDEpyc7252Catalog(1),
		TracesPerSecret: 10,
		TraceTicks:      100,
		Seed:            1,
	}
	fmt.Printf("attacker: collecting %d traces per site over %v\n", sc.TracesPerSecret, sites)
	clean, err := sc.Collect(nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	cfg := attack.TrainConfig{Epochs: 20, Seed: 1}
	clf, stats, err := attack.TrainClassifier(clean, cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("training curve (paper Fig. 1a):")
	for _, st := range stats {
		if st.Epoch%4 == 0 || st.Epoch == 1 {
			fmt.Printf("  epoch %2d: val accuracy %5.1f%%\n", st.Epoch, st.ValAcc*100)
		}
	}

	undefended, err := victimAccuracy(clf, sc, 99, 4, nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defense, err := victimDefense(1, aegis.MechanismLaplace, 0.25)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defended, err := victimAccuracy(clf, sc, 123, 4, defense)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("attack accuracy on the victim VM:")
	fmt.Printf("  undefended:           %5.1f%%\n", undefended*100)
	fmt.Printf("  Aegis (laplace 2^-2): %5.1f%%\n", defended*100)
	fmt.Printf("  random guess:         %5.1f%%\n", 100/float64(len(sites)))
	// Output:
	// attacker: collecting 10 traces per site over [google.com youtube.com facebook.com twitter.com instagram.com wikipedia.org]
	// training curve (paper Fig. 1a):
	//   epoch  1: val accuracy  77.8%
	//   epoch  4: val accuracy 100.0%
	//   epoch  8: val accuracy 100.0%
	//   epoch 12: val accuracy 100.0%
	//   epoch 16: val accuracy 100.0%
	//   epoch 20: val accuracy 100.0%
	// attack accuracy on the victim VM:
	//   undefended:           100.0%
	//   Aegis (laplace 2^-2):  16.7%
	//   random guess:          16.7%
}

// Example_keystrokeSniffing is the KSA of paper §III-D: the victim types
// 0-5 keys per observation window inside the guest, and the host infers
// how many from the HPC trace. The d* mechanism, suited to correlated time
// series like keystroke timing (§VII-B), obfuscates the bursts.
func Example_keystrokeSniffing() {
	sc := attack.Scenario{
		App:             &workload.KeystrokeApp{WindowTicks: 120, MaxKeys: 6},
		Catalog:         hpc.NewAMDEpyc7252Catalog(1),
		TracesPerSecret: 14,
		TraceTicks:      120,
		Seed:            5,
	}
	clean, err := sc.Collect(nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	cfg := attack.TrainConfig{Epochs: 25, Seed: 5}
	clf, stats, err := attack.TrainClassifier(clean, cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("trained: final val accuracy %.1f%% (paper Fig. 1b reaches 95%%)\n",
		stats[len(stats)-1].ValAcc*100)

	undefended, err := victimAccuracy(clf, sc, 77, 5, nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defense, err := victimDefense(5, aegis.MechanismDStar, 0.5)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defended, err := victimAccuracy(clf, sc, 88, 5, defense)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("keystroke-count inference accuracy:")
	fmt.Printf("  undefended:      %5.1f%%\n", undefended*100)
	fmt.Printf("  Aegis (d* 2^-1): %5.1f%%\n", defended*100)
	fmt.Printf("  random guess:    %5.1f%%\n", 100.0/6)
	// Output:
	// trained: final val accuracy 58.3% (paper Fig. 1b reaches 95%)
	// keystroke-count inference accuracy:
	//   undefended:       63.3%
	//   Aegis (d* 2^-1):  16.7%
	//   random guess:     16.7%
}

// Example_modelExtraction is the MEA of paper §III-E: a bidirectional GRU
// with a CTC decoder transcribes the HPC trace of a DNN inference inside
// the guest into the model's layer-type sequence, stealing the
// architecture. Aegis's gadget noise corrupts the layer signatures.
func Example_modelExtraction() {
	zoo := workload.ModelZoo()
	// One representative per family: VGG-, ResNet- and MobileNet-style.
	app := &workload.DNNApp{Models: []workload.ModelArch{zoo[0], zoo[10], zoo[20]}}
	for _, m := range app.Models {
		layers := make([]string, len(m.Layers))
		for i, l := range m.LayerSequence() {
			layers[i] = l.String()
		}
		seq := strings.Join(layers, "-")
		fmt.Printf("victim model %-14s: %d layers (%s...)\n", m.Name, len(m.Layers), seq[:min(len(seq), 40)])
	}

	sc := attack.Scenario{
		App:             app,
		Catalog:         hpc.NewAMDEpyc7252Catalog(1),
		TracesPerSecret: 10,
		TraceTicks:      130,
		Seed:            9,
	}
	clean, err := sc.Collect(nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	cfg := attack.TrainConfig{Epochs: 10, Seed: 9}
	atk, stats, err := attack.TrainSequenceAttack(clean, app, cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("GRU+CTC trained: val layer accuracy %.1f%% after %d epochs\n",
		stats[len(stats)-1].ValAcc*100, len(stats))

	undefended, err := victimAccuracy(atk, sc, 99, 3, nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defense, err := victimDefense(9, aegis.MechanismLaplace, 0.25)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defended, err := victimAccuracy(atk, sc, 111, 3, defense)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("layer-sequence extraction accuracy:")
	fmt.Printf("  undefended:           %5.1f%%\n", undefended*100)
	fmt.Printf("  Aegis (laplace 2^-2): %5.1f%%\n", defended*100)
	// Output:
	// victim model vggsim-0      : 9 layers (conv-relu-conv-relu-pool-fc-relu-fc-soft...)
	// victim model resnetsim-0   : 21 layers (conv-bn-relu-pool-conv-bn-relu-conv-bn-a...)
	// victim model mobilesim-0   : 18 layers (conv-bn-relu-conv-bn-relu-conv-bn-relu-c...)
	// GRU+CTC trained: val layer accuracy 45.9% after 10 epochs
	// layer-sequence extraction accuracy:
	//   undefended:            48.2%
	//   Aegis (laplace 2^-2):   8.6%
}

// Example_cryptoKeyRecovery extends the attacks to the paper's §X future
// work, the classic HPC attack of its reference [20]: a square-and-multiply
// modular exponentiation inside the guest leaks its exponent, since every
// 1-bit adds a multiply burst. The host learns which candidate key is in
// use; Aegis's noise removes the pattern.
func Example_cryptoKeyRecovery() {
	app := &workload.CryptoApp{NumKeys: 6}
	for _, k := range app.Secrets() {
		fmt.Printf("candidate %s (hamming weight %d)\n", k, strings.Count(strings.TrimPrefix(k, "key-"), "1"))
	}

	sc := attack.Scenario{
		App:             app,
		Catalog:         hpc.NewAMDEpyc7252Catalog(1),
		TracesPerSecret: 10,
		TraceTicks:      90,
		Seed:            13,
	}
	clean, err := sc.Collect(nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	cfg := attack.TrainConfig{Epochs: 20, Seed: 13}
	clf, stats, err := attack.TrainClassifier(clean, cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("trained: final val accuracy %.1f%%\n", stats[len(stats)-1].ValAcc*100)

	undefended, err := victimAccuracy(clf, sc, 113, 4, nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defense, err := victimDefense(13, aegis.MechanismLaplace, 0.25)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defended, err := victimAccuracy(clf, sc, 131, 4, defense)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("key identification accuracy:")
	fmt.Printf("  undefended:           %5.1f%%\n", undefended*100)
	fmt.Printf("  Aegis (laplace 2^-2): %5.1f%%\n", defended*100)
	fmt.Printf("  random guess:         %5.1f%%\n", 100.0/6)
	// Output:
	// candidate key-011001000011 (hamming weight 5)
	// candidate key-111111111100 (hamming weight 10)
	// candidate key-111110011001 (hamming weight 8)
	// candidate key-100010100000 (hamming weight 3)
	// candidate key-001001111100 (hamming weight 6)
	// candidate key-111000001110 (hamming weight 6)
	// trained: final val accuracy 88.9%
	// key identification accuracy:
	//   undefended:            66.7%
	//   Aegis (laplace 2^-2):  16.7%
	//   random guess:          16.7%
}
