package main

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// faultMetricLine matches the prometheus exposition lines of the fault
// injection and degradation funnel metrics — the names and label sets that
// operators alert on, which must stay stable across releases.
var faultMetricLine = regexp.MustCompile(`^(fault_injected_total|fuzzer_candidates_dropped_total|` +
	`obfuscator_(retries_total|degraded_ticks_total|zero_draw_ticks_total|no_injection_ticks_total|` +
	`injected_ticks_total|mechanism_fallbacks_total|counter_rearms_total))([{ ])`)

// filterFaultMetrics extracts the fault/degradation metric lines from a
// prometheus dump and normalises the sample values to "N" so the golden
// file pins names and labels, not counts.
func filterFaultMetrics(out string) string {
	var lines []string
	for _, line := range strings.Split(out, "\n") {
		if !faultMetricLine.MatchString(line) {
			continue
		}
		idx := strings.LastIndex(line, " ")
		if idx < 0 {
			continue
		}
		lines = append(lines, line[:idx]+" N")
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// TestFaultsPromGolden runs the full pipeline under the light fault preset
// and checks the exposed fault metric names against the golden file.
// Regenerate with AEGIS_UPDATE_GOLDEN=1 go test ./cmd/aegisctl/.
func TestFaultsPromGolden(t *testing.T) {
	oldStdout := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	outCh := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		outCh <- string(b)
	}()
	runErr := run([]string{
		"-faults", "light", "-candidates", "1500", "-top", "2",
		"-secrets", "2", "-ticks", "60", "-telemetry", "prom",
	})
	w.Close()
	os.Stdout = oldStdout
	out := <-outCh
	if runErr != nil {
		t.Fatalf("aegisctl run: %v", runErr)
	}

	got := filterFaultMetrics(out)
	golden := filepath.Join("testdata", "faults_prom.golden")
	if os.Getenv("AEGIS_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with AEGIS_UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("fault metric exposition drifted from golden.\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// The run itself must have exercised the fault layer: at least one
	// fault kind fired and the CLI surfaced the fault total.
	if !strings.Contains(out, "fault injection: light preset") {
		t.Error("fault preset banner missing from output")
	}
	if !strings.Contains(out, "faults injected across the stack:") {
		t.Error("fault total missing from output")
	}
}

func TestFaultsFlagValidation(t *testing.T) {
	if err := run([]string{"-faults", "catastrophic"}); err == nil {
		t.Fatal("unknown -faults preset accepted")
	}
	if err := run([]string{"-telemetry", "xml"}); err == nil {
		t.Fatal("unknown -telemetry format accepted")
	}
}

// TestOpsSurfaceSmoke is the acceptance test for the unified ops surface:
// a full pipeline run with -ops serves /healthz, /readyz, /metrics,
// /flight and /snapshot over real HTTP, and fault injection leaves a
// degraded obfuscator tick visibly captured in the dumped JSONL. It
// also exercises the -tail client against the live server. The light
// fault preset is used because heavy starves the fuzzer of gadgets at
// this candidate budget; light still degrades ticks (see the prom
// golden), which is what the flight recorder must capture.
func TestOpsSurfaceSmoke(t *testing.T) {
	addrCh := make(chan string, 1)
	opsAddrNotify = func(addr string) { addrCh <- addr }
	holdStop = make(chan struct{})
	defer func() { opsAddrNotify = nil; holdStop = nil }()

	oldStdout := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	outCh := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(r)
		outCh <- string(b)
	}()
	runErrCh := make(chan error, 1)
	go func() {
		runErrCh <- run([]string{
			"-ops", "127.0.0.1:0", "-hold", "60s",
			"-faults", "light", "-candidates", "1500", "-top", "2",
			"-secrets", "2", "-ticks", "120", "-telemetry", "none",
		})
	}()

	var addr string
	select {
	case addr = <-addrCh:
	case err := <-runErrCh:
		w.Close()
		os.Stdout = oldStdout
		t.Fatalf("run exited before serving ops: %v\n%s", err, <-outCh)
	case <-time.After(60 * time.Second):
		t.Fatal("timed out waiting for the ops address")
	}

	httpGet := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			select {
			case runErr := <-runErrCh:
				w.Close()
				os.Stdout = oldStdout
				t.Fatalf("run exited mid-probe (err=%v):\n%s", runErr, <-outCh)
			default:
			}
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read body: %v", path, err)
		}
		return resp.StatusCode, string(b)
	}

	// Wait for the pipeline to deploy (the warm-up gate opens /readyz)
	// and finish the world run, at which point -hold keeps serving.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if code, _ := httpGet("/readyz"); code == 200 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never turned ready")
		}
		time.Sleep(20 * time.Millisecond)
	}

	if code, body := httpGet("/healthz"); code != 200 {
		t.Fatalf("/healthz = %d\n%s", code, body)
	} else if !strings.Contains(body, `"overhead-budget"`) {
		t.Fatalf("/healthz missing overhead-budget probe:\n%s", body)
	}
	if code, body := httpGet("/metrics"); code != 200 ||
		!strings.Contains(body, "obfuscator_ticks_total") {
		t.Fatalf("/metrics = %d or missing obfuscator_ticks_total", code)
	}
	if code, body := httpGet("/snapshot"); code != 200 ||
		!strings.Contains(body, `"schema": "aegis-snapshot/v1"`) {
		t.Fatalf("/snapshot = %d\n%s", code, body)
	}

	// The acceptance criterion: a degraded tick captured in the JSONL.
	// Light faults degrade ticks; poll /flight until the incident shows.
	var flightBody string
	for {
		code, body := httpGet("/flight?kind=obfuscator-tick")
		if code != 200 {
			t.Fatalf("/flight = %d\n%s", code, body)
		}
		flightBody = body
		if strings.Contains(body, `"incident":true`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no degraded tick captured in /flight JSONL:\n%s", body)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !strings.Contains(flightBody, `"schema":"aegis-flight/v1"`) {
		t.Fatalf("/flight missing schema header:\n%s", flightBody)
	}
	if !strings.Contains(flightBody, `"code":"degraded:`) {
		t.Fatalf("degraded tick lacks a degradation reason code:\n%s", flightBody)
	}

	// The -tail client mode streams the same JSONL from the live server.
	var tail strings.Builder
	if err := runTail(addr, false, 16, &tail); err != nil {
		t.Fatalf("runTail: %v", err)
	}
	if !strings.Contains(tail.String(), `"schema":"aegis-flight/v1"`) {
		t.Fatalf("-tail output missing schema header:\n%s", tail.String())
	}

	close(holdStop)
	if err := <-runErrCh; err != nil {
		t.Fatalf("aegisctl run: %v", err)
	}
	w.Close()
	os.Stdout = oldStdout
	out := <-outCh
	if !strings.Contains(out, "ops surface: http://") {
		t.Errorf("ops banner missing from output:\n%s", out)
	}
}
