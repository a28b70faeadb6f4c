// Cryptographic key recovery (paper §X future work, and the classic HPC
// attack of paper reference [20]): a square-and-multiply modular
// exponentiation inside the SEV guest leaks its exponent bits through the
// HPC trace — 1-bits add a multiply burst per bit window. The attacker
// learns to identify which of the candidate keys is in use; Aegis's
// injected noise removes the pattern.
//
// Run with:
//
//	go run ./examples/crypto-key-recovery
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
	app := &workload.CryptoApp{NumKeys: 6}
	for _, k := range app.Secrets() {
		w, err := workload.HammingWeight(k)
		if err != nil {
			return err
		}
		fmt.Printf("candidate %s (hamming weight %d)\n", k, w)
	}

	scenario := &attack.Scenario{
		App:             app,
		Catalog:         hpc.NewAMDEpyc7252Catalog(1),
		TracesPerSecret: 10,
		TraceTicks:      90,
		Seed:            13,
	}
	fmt.Println("\nattacker: recording modular-exponentiation traces...")
	cleanData, err := scenario.Collect(nil)
	if err != nil {
		return err
	}
	cfg := attack.DefaultTrainConfig(13)
	cfg.Epochs = 20
	clf, stats, err := attack.TrainClassifier(cleanData, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("trained: final val accuracy %.1f%%\n", stats[len(stats)-1].ValAcc*100)

	victim := *scenario
	victim.Seed = 113
	victim.TracesPerSecret = 4
	victimData, err := victim.Collect(nil)
	if err != nil {
		return err
	}
	cleanAcc, err := clf.Evaluate(victimData)
	if err != nil {
		return err
	}

	fw, err := aegis.New(aegis.Config{Seed: 13, FuzzCandidates: 300})
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
	defended := *scenario
	defended.Seed = 131
	defended.TracesPerSecret = 4
	defendedData, err := defended.Collect(defense)
	if err != nil {
		return err
	}
	defendedAcc, err := clf.Evaluate(defendedData)
	if err != nil {
		return err
	}

	fmt.Printf("\nkey identification accuracy:\n")
	fmt.Printf("  undefended:           %5.1f%%\n", cleanAcc*100)
	fmt.Printf("  Aegis (laplace 2^-2): %5.1f%%\n", defendedAcc*100)
	fmt.Printf("  random guess:         %5.1f%%\n", 100.0/6)
	return nil
}
