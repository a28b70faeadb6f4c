// Keystroke sniffing (paper §III-D): the attacker observes HPC traces
// while the victim types inside the SEV guest (an xdotool-style generator
// fires K keystrokes in the observation window) and infers how many keys
// were pressed, whose timing patterns reveal what was typed. The d*
// mechanism then obfuscates the bursts.
//
// Run with:
//
//	go run ./examples/keystroke-sniffing
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
	scenario := &attack.Scenario{
		App:             &workload.KeystrokeApp{WindowTicks: 120, MaxKeys: 6},
		Catalog:         hpc.NewAMDEpyc7252Catalog(1),
		TracesPerSecret: 14,
		TraceTicks:      120,
		Seed:            5,
	}
	fmt.Println("attacker: recording keystroke windows (0-5 keys per window)...")
	cleanData, err := scenario.Collect(nil)
	if err != nil {
		return err
	}
	cfg := attack.DefaultTrainConfig(5)
	cfg.Epochs = 25
	clf, stats, err := attack.TrainClassifier(cleanData, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("trained: final val accuracy %.1f%% (paper Fig. 1b reaches 95%%)\n",
		stats[len(stats)-1].ValAcc*100)

	victim := *scenario
	victim.Seed = 77
	victim.TracesPerSecret = 5
	victimData, err := victim.Collect(nil)
	if err != nil {
		return err
	}
	cleanAcc, err := clf.Evaluate(victimData)
	if err != nil {
		return err
	}

	// Defense: d* suits reinforcing protection of correlated time series
	// like keystroke timing (paper §VII-B comparison).
	fw, err := aegis.New(aegis.Config{Seed: 5, FuzzCandidates: 300})
	if err != nil {
		return err
	}
	gadgets, err := fw.Fuzz(attack.DefaultEventNames())
	if err != nil {
		return err
	}
	defense, err := fw.NewDefense(gadgets, aegis.MechanismDStar, 0.5)
	if err != nil {
		return err
	}
	defended := *scenario
	defended.Seed = 88
	defended.TracesPerSecret = 5
	defendedData, err := defended.Collect(defense)
	if err != nil {
		return err
	}
	defendedAcc, err := clf.Evaluate(defendedData)
	if err != nil {
		return err
	}

	fmt.Printf("\nkeystroke-count inference accuracy:\n")
	fmt.Printf("  undefended:       %5.1f%%\n", cleanAcc*100)
	fmt.Printf("  Aegis (d* 2^-1):  %5.1f%%\n", defendedAcc*100)
	fmt.Printf("  random guess:     %5.1f%%\n", 100.0/6)
	return nil
}
