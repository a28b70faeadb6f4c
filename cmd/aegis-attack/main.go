// Command aegis-attack runs the paper's three HPC side-channel attacks
// (§III) against the simulated SEV guest, with or without the Aegis
// defense, and reports training curves and attack accuracy.
//
// Usage:
//
//	aegis-attack -attack wfa|ksa|mea [-defend] [-mechanism laplace|dstar] [-epsilon 1]
package main

import (
	"flag"
	"fmt"
	"os"

	aegis "github.com/repro/aegis"
	"github.com/repro/aegis/internal/attack"
	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/trace"
	"github.com/repro/aegis/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "aegis-attack:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("aegis-attack", flag.ContinueOnError)
	var (
		attackName = fs.String("attack", "wfa", "attack: wfa | ksa | mea")
		defend     = fs.Bool("defend", false, "deploy the Aegis defense in the victim VM")
		mechanism  = fs.String("mechanism", aegis.MechanismLaplace, "defense mechanism")
		epsilon    = fs.Float64("epsilon", 1.0, "privacy budget")
		seed       = fs.Uint64("seed", 1, "experiment seed")
		secrets    = fs.Int("secrets", 5, "number of secrets")
		traces     = fs.Int("traces", 10, "traces per secret")
		ticks      = fs.Int("ticks", 100, "trace length in ticks")
		epochs     = fs.Int("epochs", 20, "training epochs")
		saveTraces = fs.String("save", "", "save the collected dataset to this JSONL file")
		loadTraces = fs.String("load", "", "load the dataset from this JSONL file instead of collecting")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	catalog := hpc.NewAMDEpyc7252Catalog(1)
	var app workload.App
	switch *attackName {
	case "wfa":
		sites := workload.Websites()
		if *secrets < len(sites) {
			sites = sites[:*secrets]
		}
		app = &workload.WebsiteApp{Sites: sites}
	case "ksa":
		app = &workload.KeystrokeApp{WindowTicks: *ticks, MaxKeys: *secrets}
	case "mea":
		zoo := workload.ModelZoo()
		if *secrets < len(zoo) {
			zoo = zoo[:*secrets]
		}
		app = &workload.DNNApp{Models: zoo}
	default:
		return fmt.Errorf("unknown attack %q", *attackName)
	}

	sc := &attack.Scenario{
		App:             app,
		Catalog:         catalog,
		TracesPerSecret: *traces,
		TraceTicks:      *ticks,
		Seed:            *seed,
	}

	var defense aegis.DefenseFactory
	if *defend {
		fw, err := aegis.New(aegis.Config{Seed: *seed, FuzzCandidates: 300})
		if err != nil {
			return err
		}
		gadgets, err := fw.Fuzz(attack.DefaultEventNames())
		if err != nil {
			return err
		}
		defense, err = fw.NewDefense(gadgets, *mechanism, *epsilon)
		if err != nil {
			return err
		}
		fmt.Printf("defense: %s eps=%g, %d-gadget cover\n", *mechanism, *epsilon, gadgets.CoverSize)
	}

	var ds *trace.Dataset
	if *loadTraces != "" {
		fmt.Printf("loading dataset from %s...\n", *loadTraces)
		var err error
		ds, err = trace.LoadFile(*loadTraces)
		if err != nil {
			return err
		}
	} else {
		fmt.Printf("collecting %d traces x %d secrets x %d ticks (%s)...\n",
			*traces, len(app.Secrets()), *ticks, map[bool]string{true: "defended", false: "clean"}[*defend])
		var err error
		ds, err = sc.Collect(defense)
		if err != nil {
			return err
		}
	}
	if *saveTraces != "" {
		if err := ds.SaveFile(*saveTraces); err != nil {
			return err
		}
		fmt.Printf("saved %d traces to %s\n", ds.Len(), *saveTraces)
	}

	if *attackName == "mea" {
		dnn, ok := app.(*workload.DNNApp)
		if !ok {
			return fmt.Errorf("internal: mea app type")
		}
		cfg := attack.DefaultSequenceTrainConfig(*seed)
		cfg.Epochs = *epochs
		atk, stats, err := attack.TrainSequenceAttack(ds, dnn, cfg)
		if err != nil {
			return err
		}
		for _, st := range stats {
			fmt.Printf("epoch %2d  ctc-loss %8.3f  val layer-acc %5.1f%%\n",
				st.Epoch, st.TrainLoss, st.ValAcc*100)
		}
		acc, err := atk.Evaluate(ds)
		if err != nil {
			return err
		}
		fmt.Printf("\nfinal layer-sequence accuracy: %.1f%%\n", acc*100)
		return nil
	}

	cfg := attack.DefaultTrainConfig(*seed)
	cfg.Epochs = *epochs
	clf, stats, err := attack.TrainClassifier(ds, cfg)
	if err != nil {
		return err
	}
	for _, st := range stats {
		fmt.Printf("epoch %2d  loss %7.4f  train %5.1f%%  val %5.1f%%\n",
			st.Epoch, st.TrainLoss, st.TrainAcc*100, st.ValAcc*100)
	}
	acc, err := clf.Evaluate(ds)
	if err != nil {
		return err
	}
	fmt.Printf("\nfinal accuracy: %.1f%% (random guess %.1f%%)\n",
		acc*100, 100/float64(clf.Classes()))
	return nil
}
