// Model extraction (paper §III-E): the attacker transcribes the HPC trace
// of a DNN inference running inside the SEV guest into the model's
// layer-type sequence with a bidirectional GRU + CTC decoder, stealing the
// architecture. Aegis's injected gadget noise then corrupts the layer
// signatures.
//
// Run with:
//
//	go run ./examples/model-extraction
package main

import (
	"fmt"
	"log"
	"strings"

	aegis "github.com/repro/aegis"
	"github.com/repro/aegis/internal/attack"
	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	zoo := workload.ModelZoo()
	// One representative per family: VGG-style, ResNet-style, MobileNet-style.
	victims := []workload.ModelArch{zoo[0], zoo[10], zoo[20]}
	app := &workload.DNNApp{Models: victims}
	for _, m := range victims {
		fmt.Printf("victim model %-14s: %d layers (%s...)\n",
			m.Name, len(m.Layers), prefix(m.SequenceString(), 40))
	}

	scenario := &attack.Scenario{
		App:             app,
		Catalog:         hpc.NewAMDEpyc7252Catalog(1),
		TracesPerSecret: 10,
		TraceTicks:      130,
		Seed:            9,
	}
	fmt.Println("\nattacker: recording inference traces...")
	cleanData, err := scenario.Collect(nil)
	if err != nil {
		return err
	}
	cfg := attack.DefaultSequenceTrainConfig(9)
	cfg.Epochs = 10
	atk, stats, err := attack.TrainSequenceAttack(cleanData, app, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("GRU+CTC trained: val layer accuracy %.1f%% after %d epochs\n",
		stats[len(stats)-1].ValAcc*100, len(stats))

	// Transcribe one victim trace.
	pred, err := atk.Predict(cleanData.Traces[0])
	if err != nil {
		return err
	}
	var names []string
	for _, l := range pred {
		names = append(names, l.String())
	}
	fmt.Printf("sample transcription of %s: %s...\n",
		cleanData.Traces[0].Label, prefix(strings.Join(names, "-"), 60))

	victimSc := *scenario
	victimSc.Seed = 99
	victimSc.TracesPerSecret = 3
	victimData, err := victimSc.Collect(nil)
	if err != nil {
		return err
	}
	cleanAcc, err := atk.Evaluate(victimData)
	if err != nil {
		return err
	}

	fw, err := aegis.New(aegis.Config{Seed: 9, FuzzCandidates: 300})
	if err != nil {
		return err
	}
	gadgets, err := fw.Fuzz(attack.DefaultEventNames())
	if err != nil {
		return err
	}
	defense, err := fw.NewDefense(gadgets, aegis.MechanismLaplace, 0.25)
	if err != nil {
		return err
	}
	defendedSc := *scenario
	defendedSc.Seed = 111
	defendedSc.TracesPerSecret = 3
	defendedData, err := defendedSc.Collect(defense)
	if err != nil {
		return err
	}
	defendedAcc, err := atk.Evaluate(defendedData)
	if err != nil {
		return err
	}

	fmt.Printf("\nlayer-sequence extraction accuracy:\n")
	fmt.Printf("  undefended:           %5.1f%%\n", cleanAcc*100)
	fmt.Printf("  Aegis (laplace 2^-2): %5.1f%%\n", defendedAcc*100)
	return nil
}

func prefix(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}
