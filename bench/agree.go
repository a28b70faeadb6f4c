package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// declared is the part of BENCHMARK.json the agreement check reads.
type declared struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readDeclared parses BENCHMARK.json.
func readDeclared(path string) (declared, error) {
	var d declared
	raw, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		return d, fmt.Errorf("parse %s: %w", path, err)
	}
	return d, nil
}

// childRun is one untraced run in a child process.
type childRun struct {
	metrics map[string]float64
	digest  string
}

// runChild runs the benchmark binary itself on one workload and seed and
// waits for it.
func runChild(workload string, seed uint64, seconds int) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	var out, errOut bytes.Buffer
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		return childRun{}, fmt.Errorf("%s seed %d: %w\n%s", workload, seed, err, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return childRun{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	run := childRun{metrics: make(map[string]float64)}
	for name, m := range res.Metrics {
		run.metrics[name] = m.Value
	}
	sc := bufio.NewScanner(&errOut)
	for sc.Scan() {
		if d, ok := strings.CutPrefix(sc.Text(), "digest: "); ok {
			run.digest = d
		}
	}
	return run, nil
}

// agreeRuns is the number of runs per set and workload in the
// self-agreement check.
const agreeRuns = 5

// runAgree runs two sets of agreeRuns runs per workload, alternating
// between the sets, with seeds 1..agreeRuns in each set. For every
// end-to-end metric it prints the change between the sets' medians
// against the declared bound; a metric whose quartile spread exceeds its
// bound is "unresolved". Same seeds must give identical output digests in
// both sets. It returns 1 when any metric disagrees or any run fails.
func runAgree(workloads []string, seconds int, stdout, stderr io.Writer) int {
	decl, err := readDeclared("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	status := 0
	for _, w := range workloads {
		var sets [2][]childRun
		for i := 0; i < agreeRuns; i++ {
			for k := 0; k < 2; k++ {
				set := k
				if i%2 == 1 {
					set = 1 - k
				}
				fmt.Fprintf(stderr, "agree: %s set %d seed %d\n", w, set+1, i+1)
				r, err := runChild(w, uint64(i+1), seconds)
				if err != nil {
					fmt.Fprintln(stderr, "bench:", err)
					return 1
				}
				sets[set] = append(sets[set], r)
			}
		}
		for i := 0; i < agreeRuns; i++ {
			a, b := sets[0][i], sets[1][i]
			if a.digest != b.digest {
				fmt.Fprintf(stdout, "%-13s seed %d: outputs differ between sets (digest %s vs %s)\n", w, i+1, a.digest, b.digest)
				status = 1
			}
		}
		for _, m := range decl.EndToEnd {
			var xs, ys []float64
			for i := 0; i < agreeRuns; i++ {
				xs = append(xs, sets[0][i].metrics[m.Name])
				ys = append(ys, sets[1][i].metrics[m.Name])
			}
			mx, my := median(xs), median(ys)
			worse := my/mx - 1
			if m.Better == "higher" {
				worse = mx/my - 1
			}
			spread := math.Max(relIQR(xs), relIQR(ys))
			verdict := "agree"
			switch {
			case m.Name == "setup_s":
				// setup_s is judged on its medians only.
				if math.Abs(worse) > m.Bound {
					verdict = "DISAGREE"
				}
			case spread > m.Bound:
				verdict = "unresolved"
			case math.Abs(worse) > m.Bound:
				verdict = "DISAGREE"
			}
			if verdict == "DISAGREE" {
				status = 1
			}
			fmt.Fprintf(stdout, "%-13s %-22s median %12.4f vs %12.4f %-3s  change %+7.2f%%  spread %6.2f%%  bound %5.1f%%  %s\n",
				w, m.Name, mx, my, m.Unit, worse*100, spread*100, m.Bound*100, verdict)
		}
	}
	return status
}
