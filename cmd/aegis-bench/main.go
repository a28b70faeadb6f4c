// Command aegis-bench regenerates the paper's tables and figures on the
// simulated SEV platform and prints the rows/series the paper reports.
//
// Usage:
//
//	aegis-bench [-only table1,figure9a,...] [-scale test|eval] [-seed N]
//	            [-parallelism N] [-serial] [-flight PATH]
//	            [-store DIR]
//	            [-cpuprofile PATH] [-memprofile PATH]
//
// Without -only, every experiment runs in paper order. The eval scale
// matches the values recorded in EXPERIMENTS.md; the test scale is a quick
// smoke run. Performance is measured by the repo benchmark in bench/, not
// by this command.
//
// -parallelism bounds the worker pools inside the fuzzing and profiling
// pipelines (0 = GOMAXPROCS). Results are byte-identical at every value;
// only wall-clock time changes. Independent experiments run concurrently
// unless -serial is given.
//
// -flight writes the flight recorder's journal to PATH as aegis-flight/v1
// JSONL, one labelled dump per experiment as it completes. It implies
// serial job execution: the recorder is process-global, so concurrent
// experiments would interleave their records.
//
// -store DIR backs the profiling and fuzzing pipelines with the versioned
// artifact store rooted at DIR: campaign shards checkpoint there and
// matching shards resume on later runs. Results are byte-identical with
// or without the store.
//
// -cpuprofile and -memprofile write pprof profiles covering the selected
// experiments (the heap profile is taken after a final GC, so it shows
// retained memory rather than transient garbage). Combine with -serial
// when attributing costs to one pipeline.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"github.com/repro/aegis/internal/experiment"
	"github.com/repro/aegis/internal/ops"
	"github.com/repro/aegis/internal/parallel"
	"github.com/repro/aegis/internal/telemetry"
	"github.com/repro/aegis/internal/telemetry/flight"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "aegis-bench:", err)
		os.Exit(1)
	}
}

type job struct {
	name string
	run  func(experiment.Scale) (string, error)
}

// render turns an experiment's (result, error) pair into a job's output.
func render[R interface{ Render() string }](r R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

func jobs() []job {
	return []job{
		{"table1", func(experiment.Scale) (string, error) { return experiment.Table1().Render(), nil }},
		{"table2", func(sc experiment.Scale) (string, error) { return render(experiment.Table2(sc)) }},
		{"table3", func(sc experiment.Scale) (string, error) { return render(experiment.Table3(sc)) }},
		{"figure1", func(sc experiment.Scale) (string, error) { return render(experiment.Figure1(sc)) }},
		{"figure3", func(sc experiment.Scale) (string, error) { return render(experiment.Figure3(sc)) }},
		{"figure8", func(sc experiment.Scale) (string, error) { return render(experiment.Figure8(sc)) }},
		{"figure9a", func(sc experiment.Scale) (string, error) { return render(experiment.Figure9a(sc, nil)) }},
		{"figure9b", func(sc experiment.Scale) (string, error) { return render(experiment.Figure9b(sc, nil)) }},
		{"figure9c", func(sc experiment.Scale) (string, error) { return render(experiment.Figure9c(sc, nil)) }},
		{"figure10", func(sc experiment.Scale) (string, error) { return render(experiment.Figure10(sc, nil)) }},
		{"figure11", func(sc experiment.Scale) (string, error) { return render(experiment.Figure11(sc)) }},
		{"constant", func(sc experiment.Scale) (string, error) { return render(experiment.ConstantOutputComparison(sc)) }},
		{"operating", func(sc experiment.Scale) (string, error) {
			return render(experiment.FindOperatingPoints(sc, 0.25, nil))
		}},
		{"multitries", func(sc experiment.Scale) (string, error) { return render(experiment.MultipleTriesAnalysis(sc, nil)) }},
		{"occupancy", func(sc experiment.Scale) (string, error) {
			return render(experiment.CacheOccupancyExtension(sc, 0.125))
		}},
		{"ablation-cover", func(sc experiment.Scale) (string, error) { return render(experiment.AblationSetCover(sc)) }},
		{"ablation-pca", func(sc experiment.Scale) (string, error) { return render(experiment.AblationPCA(sc)) }},
		{"ablation-confirm", func(sc experiment.Scale) (string, error) { return render(experiment.AblationConfirmation(sc)) }},
		{"robustness", func(sc experiment.Scale) (string, error) { return render(experiment.Robustness(sc)) }},
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("aegis-bench", flag.ContinueOnError)
	var (
		only     = fs.String("only", "", "comma-separated experiment names (default: all)")
		scale    = fs.String("scale", "eval", "scale: test | eval")
		seed     = fs.Uint64("seed", 1, "experiment seed")
		list     = fs.Bool("list", false, "list experiment names and exit")
		telem    = fs.Bool("telemetry", true, "print a telemetry summary after the run")
		para     = fs.Int("parallelism", 0, "pipeline worker bound (0 = GOMAXPROCS)")
		serial   = fs.Bool("serial", false, "run experiments one at a time")
		flightTo = fs.String("flight", "", "write per-experiment aegis-flight/v1 JSONL dumps to this path (implies serial jobs)")
		storeDir = fs.String("store", "", "artifact store directory backing the offline pipelines (enables campaign resume)")
		faults   = fs.String("faults", "", "fault preset for the robustness experiment: off | light | heavy (empty = sweep all)")
		cpuprof  = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
		memprof  = fs.String("memprofile", "", "write a pprof heap profile (post-GC) to this path at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, j := range jobs() {
			fmt.Println(j.name)
		}
		return nil
	}
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprof != "" {
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				fmt.Fprintln(os.Stderr, "aegis-bench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "aegis-bench: memprofile:", err)
			}
		}()
	}
	var sc experiment.Scale
	switch *scale {
	case "test":
		sc = experiment.TestScale(*seed)
	case "eval":
		sc = experiment.EvalScale(*seed)
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}
	if *para < 0 {
		return fmt.Errorf("bad -parallelism %d (want >= 0)", *para)
	}
	sc.FaultPreset = *faults
	sc.Parallelism = *para

	selected := map[string]bool{}
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			selected[strings.TrimSpace(name)] = true
		}
	}
	var picked []job
	for _, j := range jobs() {
		if len(selected) == 0 || selected[j.name] {
			picked = append(picked, j)
		}
	}
	for _, j := range picked {
		delete(selected, j.name)
	}
	if len(selected) > 0 {
		unknown := make([]string, 0, len(selected))
		for name := range selected {
			unknown = append(unknown, fmt.Sprintf("%q", name))
		}
		sort.Strings(unknown)
		return fmt.Errorf("unknown experiment(s) %s in -only (see -list)", strings.Join(unknown, ", "))
	}

	sc.ArtifactDir = *storeDir

	var flightFile *os.File
	if *flightTo != "" {
		f, err := os.Create(*flightTo)
		if err != nil {
			return fmt.Errorf("flight: %w", err)
		}
		flightFile = f
		defer flightFile.Close()
	}

	outs := make([]string, len(picked))
	exec := func(_ context.Context, i int) (struct{}, error) {
		j := picked[i]
		start := time.Now()
		out, err := j.run(sc)
		if err != nil {
			return struct{}{}, fmt.Errorf("%s: %w", j.name, err)
		}
		outs[i] = fmt.Sprintf("=== %s ===\n%s\n(%s in %s)\n\n", j.name, out, j.name, time.Since(start).Round(time.Millisecond))
		return struct{}{}, nil
	}
	// Flight dumps need experiments serialised so each dump window holds
	// exactly one experiment's records.
	if !*serial && flightFile == nil && len(picked) > 1 {
		pool := parallel.NewPool("bench.jobs", 0)
		if _, err := parallel.Map(context.Background(), pool, len(picked), exec); err != nil {
			return err
		}
		for _, o := range outs {
			fmt.Print(o)
		}
	} else {
		for i := range picked {
			before := flight.Default().Total()
			if _, err := exec(context.Background(), i); err != nil {
				return err
			}
			fmt.Print(outs[i])
			if flightFile != nil {
				err := flight.Default().WriteJSONL(flightFile, flight.DumpOptions{
					Since: before, Label: picked[i].name,
				})
				if err != nil {
					return fmt.Errorf("flight: %w", err)
				}
			}
		}
	}
	if flightFile != nil {
		fmt.Printf("wrote flight journal to %s\n", *flightTo)
	}
	if *telem {
		fmt.Printf("=== telemetry ===\n%s", telemetry.Default().Summary())
		fmt.Println(ops.NewTelemetryBudget(nil).Status().Verdict())
	}
	return nil
}
