// Website fingerprinting (paper §III-C): a malicious hypervisor watches
// four HPC events of the core backing a SEV guest's vCPU while a browser
// inside loads websites, trains a classifier on the leakage traces, and
// predicts which site the victim visits — then the same attack is repeated
// against a VM protected by Aegis.
//
// Run with:
//
//	go run ./examples/website-fingerprinting
package main

import (
	"fmt"
	"log"

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
	sites := workload.Websites()[:6]
	scenario := &attack.Scenario{
		App:             &workload.WebsiteApp{Sites: sites},
		Catalog:         hpc.NewAMDEpyc7252Catalog(1),
		TracesPerSecret: 10,
		TraceTicks:      100,
		Seed:            1,
	}

	// Offline phase: the attacker profiles a template VM.
	fmt.Printf("attacker: collecting %d traces per site over %v\n",
		scenario.TracesPerSecret, sites)
	cleanData, err := scenario.Collect(nil)
	if err != nil {
		return err
	}
	cfg := attack.DefaultTrainConfig(1)
	cfg.Epochs = 20
	clf, stats, err := attack.TrainClassifier(cleanData, cfg)
	if err != nil {
		return err
	}
	fmt.Println("training curve (paper Fig. 1a):")
	for _, st := range stats {
		if st.Epoch%4 == 0 || st.Epoch == 1 {
			fmt.Printf("  epoch %2d: val accuracy %5.1f%%\n", st.Epoch, st.ValAcc*100)
		}
	}

	// Online phase 1: undefended victim.
	victim := *scenario
	victim.Seed = 99
	victim.TracesPerSecret = 4
	victimData, err := victim.Collect(nil)
	if err != nil {
		return err
	}
	cleanAcc, err := clf.Evaluate(victimData)
	if err != nil {
		return err
	}

	// Online phase 2: the victim deploys Aegis.
	fw, err := aegis.New(aegis.Config{Seed: 1, FuzzCandidates: 300})
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
	defendedVictim := *scenario
	defendedVictim.Seed = 123
	defendedVictim.TracesPerSecret = 4
	defendedData, err := defendedVictim.Collect(defense)
	if err != nil {
		return err
	}
	defendedAcc, err := clf.Evaluate(defendedData)
	if err != nil {
		return err
	}

	fmt.Printf("\nattack accuracy on the victim VM:\n")
	fmt.Printf("  undefended:          %5.1f%%\n", cleanAcc*100)
	fmt.Printf("  Aegis (laplace 2^-2): %5.1f%%\n", defendedAcc*100)
	fmt.Printf("  random guess:        %5.1f%%\n", 100/float64(len(sites)))
	return nil
}
