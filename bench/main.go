// Command bench is the repository benchmark: aegisd fleet tick throughput
// and latency, the start-up plan campaign, and a per-layer ledger, all
// measured from outside through public entry points.
//
// Usage (from the repository root; run.sh builds the command first):
//
//	bash bench/run.sh --workload fleet-steady --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --agree [--workload W] [--seconds 15]
//
// The untraced run (--trace 0) prints the end-to-end metrics, the traced
// run (--trace 1) the per-layer metrics; both print their result as one
// JSON object on the last line of standard output and a human-readable
// report on standard error. A failed correctness check makes the command
// exit 1. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"fleet-steady", "fleet-churn", "fleet-idle", "campaign"}

// fleetSpecs maps the fleet workloads to their specs.
var fleetSpecs = map[string]fleetSpec{
	"fleet-steady": fleetSteady,
	"fleet-churn":  fleetChurn,
	"fleet-idle":   fleetIdle,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", ")+" (with -agree: only this one)")
		seed     = fs.Uint64("seed", 1, "seed every input derives from")
		seconds  = fs.Int("seconds", 15, "run length in seconds at the reference host's rate")
		trace    = fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
		agree    = fs.Bool("agree", false, "run two sets of alternating runs per workload and compare their medians")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	if *agree {
		names := workloadNames
		if *workload != "" {
			names = []string{*workload}
		}
		return runAgree(names, *seconds, stdout, stderr)
	}
	fmt.Fprintf(stderr, "bench: workload %s seed %d seconds %d trace %d; GOMAXPROCS %d NumCPU %d parallelism %d\n",
		*workload, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), parallelism)
	rep, defs, err := runWorkload(*workload, *seed, *seconds, *trace == 1, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	res := rep.result(defs)
	for _, p := range rep.problems {
		fmt.Fprintln(stderr, "check failed:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload and returns its report with the metric
// list it is rendered against.
func runWorkload(name string, seed uint64, seconds int, traced bool, log io.Writer) (*report, []metricDef, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if name == "campaign" {
		n := count(seconds, campaignFull.perSecond)
		if n < campaignFull.minRuns {
			n = campaignFull.minRuns
		}
		if traced {
			return runCampaignsTraced(campaignFull, seed, n, log), defs, nil
		}
		return runCampaigns(campaignFull, seed, n, log), defs, nil
	}
	spec, ok := fleetSpecs[name]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(workloadNames, ", "))
	}
	steps := count(seconds, spec.stepsPerSecond)
	if traced {
		return runFleetTraced(spec, seed, steps, log), defs, nil
	}
	return runFleet(spec, seed, steps, log), defs, nil
}

// count converts a run length into a number of operations at a rate.
func count(seconds int, perSecond float64) int {
	n := int(float64(seconds)*perSecond + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}
