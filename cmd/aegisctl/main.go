// Command aegisctl drives the Aegis pipeline end to end on the simulated
// SEV platform: profile an application, fuzz gadgets for its most
// vulnerable HPC events, and deploy the obfuscator into a victim VM.
//
// Usage:
//
//	aegisctl [flags]
//
// Flags select the application, the DP mechanism and ε, and the offline
// analysis budgets. The tool prints the profiler ranking, the gadget
// cover, and the injection telemetry of a protected run.
//
// Besides the pipeline, aegisctl has client and inspection modes: -tail
// streams a running ops server's flight journal, -ctl drives a running
// aegisd's control API, and -artifacts DIR lists a campaign artifact
// store's entries — kind, fingerprint, schema version, size — marking
// each current or stale against the configuration the other flags
// describe.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	aegis "github.com/repro/aegis"
	"github.com/repro/aegis/internal/artifact"
	"github.com/repro/aegis/internal/experiment"
	"github.com/repro/aegis/internal/faultinject"
	"github.com/repro/aegis/internal/obfuscator"
	"github.com/repro/aegis/internal/ops"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/sev"
	"github.com/repro/aegis/internal/telemetry"
	"github.com/repro/aegis/internal/workload"
)

// opsAddrNotify, when set (by tests), receives the bound ops address as
// soon as the server is up.
var opsAddrNotify func(addr string)

// tailPollInterval paces -tail -follow polling.
var tailPollInterval = 500 * time.Millisecond

// holdStop, when non-nil (tests), interrupts -hold early on close.
var holdStop chan struct{}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "aegisctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("aegisctl", flag.ContinueOnError)
	var (
		appName    = fs.String("app", "website", "application to protect: website | keystroke | dnn")
		mechanism  = fs.String("mechanism", aegis.MechanismLaplace, "noise mechanism: laplace | dstar | random | constant")
		epsilon    = fs.Float64("epsilon", 1.0, "privacy budget (or bound/peak for baselines)")
		seed       = fs.Uint64("seed", 1, "experiment seed")
		topEvents  = fs.Int("top", 4, "number of vulnerable events to protect")
		secrets    = fs.Int("secrets", 6, "number of application secrets to profile")
		candidates = fs.Int("candidates", 400, "fuzzing candidates per event")
		ticks      = fs.Int("ticks", 200, "protected run length in ticks")
		advise     = fs.Bool("advise", false, "auto-select epsilon: largest budget pushing a website-fingerprinting attacker to <= -target accuracy")
		target     = fs.Float64("target", 0.25, "target attack accuracy for -advise")
		faultsFlag = fs.String("faults", faultinject.PresetOff, "substrate fault preset: off | light | heavy (deterministic, seed-derived)")
		telemFmt   = fs.String("telemetry", "summary", "telemetry dump after the run: summary | json | prom | none")
		verbose    = fs.Bool("v", false, "stream structured telemetry events to stderr")
		opsAddr    = fs.String("ops", "", "serve the ops surface (/healthz /readyz /metrics /debug/pprof /flight /snapshot) on this address, e.g. :9144")
		hold       = fs.Duration("hold", 0, "with -ops: keep serving for this long after the run completes")
		tailFrom   = fs.String("tail", "", "client mode: stream /flight JSONL from a running ops server (URL or host:port) and exit; ignores pipeline flags")
		follow     = fs.Bool("follow", false, "with -tail: poll for new records instead of exiting after one dump")
		tailWindow = fs.Int("window", 0, "with -tail: only the newest N records")
		ctlFrom    = fs.String("ctl", "", "client mode: drive a running aegisd's control API (URL or host:port); the command follows the flags: status | list | tenant <name> | attach <name> [app [secrets]] | detach <name> | kill <name> | submit <name> <jobs> | reload <json|@file>")
		storeDir   = fs.String("store", "", "artifact store directory backing the offline pipelines (campaign resume; a warm run is byte-identical, only faster)")
		artifacts  = fs.String("artifacts", "", "inspect mode: list an artifact store's entries (kind, fingerprint, schema, size) and their staleness vs the current flags, then exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tailFrom != "" {
		return runTail(*tailFrom, *follow, *tailWindow, os.Stdout)
	}
	if *ctlFrom != "" {
		return runCtl(*ctlFrom, fs.Args(), os.Stdout)
	}
	if *artifacts != "" {
		return runArtifacts(*artifacts, *appName, *secrets, *seed, *candidates, *faultsFlag, os.Stdout)
	}
	switch *telemFmt {
	case "summary", "json", "prom", "none":
	default:
		return fmt.Errorf("unknown -telemetry format %q (want summary, json, prom or none)", *telemFmt)
	}
	if *verbose {
		telemetry.Log().SetSink(telemetry.NewWriterSink(os.Stderr))
	}

	app, err := pickApp(*appName, *secrets)
	if err != nil {
		return err
	}
	faults, err := faultinject.Preset(*faultsFlag, *seed)
	if err != nil {
		return err
	}

	fw, err := aegis.New(aegis.Config{
		Seed:              *seed,
		FuzzCandidates:    *candidates,
		ProfileTraceTicks: 80,
		ProfileRepeats:    4,
		ArtifactDir:       *storeDir,
		Faults:            faults,
		Ops:               ops.Config{Addr: *opsAddr},
	})
	if err != nil {
		return err
	}
	defer fw.Close()
	if srv := fw.OpsServer(); srv != nil {
		fmt.Printf("ops surface: http://%s (healthz readyz metrics pprof flight snapshot)\n", srv.Addr())
		if opsAddrNotify != nil {
			opsAddrNotify(srv.Addr())
		}
	}
	if faults.Enabled() {
		fmt.Printf("fault injection: %s preset (seed-derived schedules)\n", *faultsFlag)
	}
	fmt.Printf("platform: %s (%d legal instruction variants)\n",
		fw.Catalog().Processor, fw.LegalInstructions())

	fmt.Printf("\n[1/3] profiling %q over %d secrets...\n", app.Name(), len(app.Secrets()))
	profile, err := fw.Profile(app)
	if err != nil {
		return err
	}
	fmt.Printf("warm-up: %d/%d events respond to the application\n",
		profile.WarmupRemaining, profile.TotalEvents)
	fmt.Println("most vulnerable events (mutual information, bits):")
	for i, re := range profile.Ranked {
		if i >= *topEvents {
			break
		}
		fmt.Printf("  %2d. %-40s %.3f\n", i+1, re.Event.Name, re.MI)
	}

	fmt.Printf("\n[2/3] fuzzing gadgets for the top %d events...\n", *topEvents)
	gadgets, err := fw.Fuzz(profile.Top(*topEvents))
	if err != nil {
		return err
	}
	fmt.Printf("tried %d candidates; minimal cover: %d gadgets (%d instructions stacked)\n",
		gadgets.GadgetsTried, gadgets.CoverSize, gadgets.SegmentLen)

	chosenEps := *epsilon
	if *advise {
		fmt.Printf("\n[advise] sweeping epsilon for target attack accuracy <= %.0f%%...\n", *target*100)
		sc := experiment.TestScale(*seed)
		points, err := experiment.FindOperatingPoints(sc, *target, nil)
		if err != nil {
			return err
		}
		fmt.Print(points.Render())
		kind := experiment.MechanismKind(*mechanism)
		if p, ok := points.Point(kind); ok && p.Met {
			chosenEps = p.Epsilon
			fmt.Printf("using epsilon %g for %s\n", chosenEps, *mechanism)
		} else {
			fmt.Printf("no swept epsilon met the target for %s; keeping %g\n", *mechanism, chosenEps)
		}
	}

	fmt.Printf("\n[3/3] deploying %s obfuscator (param %g) into a SEV guest...\n",
		*mechanism, chosenEps)
	lib := workload.DefaultLibrary(1)
	stream := rng.New(*seed).Split("aegisctl")
	runner := workload.NewRunner(app.Name(), lib, stream.Split("runner"))
	for i, secret := range app.Secrets() {
		job, err := app.Job(secret, stream.SplitN("job", i))
		if err != nil {
			return err
		}
		runner.Enqueue(job)
	}
	guest, err := sev.NewGuest(sev.GuestConfig{
		World: sev.DefaultConfig(*seed), VM: sev.VMConfig{VCPUs: 1, SEV: true},
		Faults: fw.FaultInjector(), App: runner,
	})
	if err != nil {
		return err
	}
	att := guest.VM.Attest()
	fmt.Printf("attestation: %s / %s (measurement %x)\n",
		att.Processor, att.SEVVersion, att.Measurement)
	obf, err := fw.Protect(guest.VM, 0, gadgets, *mechanism, chosenEps)
	if err != nil {
		return err
	}
	if srv := fw.OpsServer(); srv != nil {
		// Component probes: sev world liveness, obfuscator fidelity, and
		// hpc substrate (degraded when its fault counters move). Probes
		// run on HTTP handler goroutines while the world steps
		// single-threaded, so they read only atomic telemetry counters —
		// never live simulation objects like World or Obfuscator.
		reg := telemetry.Default()
		srv.RegisterHealth(ops.Probe{Name: "sev", Check: func() ops.ProbeResult {
			return ops.OK(fmt.Sprintf("tick %.0f", reg.Counter(telemetry.MetricSevWorldTicksTotal).Value()))
		}})
		srv.RegisterHealth(ops.Probe{Name: "obfuscator", Check: func() ops.ProbeResult {
			total := reg.Counter(telemetry.MetricObfuscatorTicksTotal).Value()
			var degraded float64
			for _, r := range obfuscator.DegradeReasons {
				degraded += reg.Counter(telemetry.MetricObfuscatorDegradedTicksTotal,
					telemetry.L("reason", string(r))).Value()
			}
			if degraded == 0 {
				return ops.OK(fmt.Sprintf("%.0f ticks, full fidelity", total))
			}
			return ops.Degraded(fmt.Sprintf("%.0f/%.0f ticks degraded", degraded, total))
		}})
		srv.RegisterHealth(ops.Probe{Name: "hpc", Check: func() ops.ProbeResult {
			hpcFaults := reg.Counter(telemetry.MetricFaultInjectedTotal,
				telemetry.L("kind", faultinject.KindPMURead.String())).Value() +
				reg.Counter(telemetry.MetricFaultInjectedTotal,
					telemetry.L("kind", faultinject.KindCounterSaturation.String())).Value()
			if hpcFaults == 0 {
				return ops.OK("counters clean")
			}
			return ops.Degraded(fmt.Sprintf("%.0f PMU read/saturation faults", hpcFaults))
		}})
	}
	guest.World.Run(*ticks)

	usage, err := guest.VM.CPUUsage(0)
	if err != nil {
		return err
	}
	fmt.Printf("\nprotected run: %d ticks, vCPU usage %.1f%%\n", *ticks, usage*100)
	fmt.Printf("injected %d gadget-segment executions (%.0f reference-event counts, saturation %.1f%%)\n",
		obf.InjectedReps(), obf.InjectedCounts(), obf.SaturationRate()*100)
	fmt.Printf("completed %d/%d application jobs\n",
		runner.Completed(), len(app.Secrets()))

	report := obf.Report()
	if report.Full() {
		fmt.Println("protection: full (no degraded ticks, no substrate faults)")
	} else {
		fmt.Printf("protection: DEGRADED — %d/%d ticks degraded, %d retries, %d counter re-arms, %d mechanism fallbacks, %d faults seen\n",
			report.DegradedTicks, report.Ticks, report.Retries,
			report.CounterRearms, report.MechanismFallbacks, report.FaultsSeen)
		for _, reason := range obfuscator.DegradeReasons {
			if n := report.DegradedByReason[reason]; n > 0 {
				fmt.Printf("  degraded[%s] = %d\n", reason, n)
			}
		}
	}
	if in := fw.FaultInjector(); in != nil {
		fmt.Printf("faults injected across the stack: %d\n", in.Total())
	}

	switch *telemFmt {
	case "summary":
		fmt.Printf("\n--- telemetry ---\n%s", telemetry.Default().Summary())
	case "json":
		fmt.Println("\n--- telemetry (json) ---")
		if err := telemetry.Default().WriteJSON(os.Stdout); err != nil {
			return err
		}
	case "prom":
		fmt.Println("\n--- telemetry (prometheus) ---")
		if err := telemetry.Default().WritePrometheus(os.Stdout); err != nil {
			return err
		}
	}
	if srv := fw.OpsServer(); srv != nil && *hold > 0 {
		fmt.Printf("holding ops surface at http://%s for %s (ctrl-c to stop)\n", srv.Addr(), *hold)
		select {
		case <-time.After(*hold):
		case <-holdStop:
		}
	}
	return nil
}

// runArtifacts is the -artifacts inspect mode: it lists every entry of an
// artifact store and marks each one current or stale against the artifact
// inventory the current flags would consult. A stale entry can never be
// loaded under these flags (its fingerprinted inputs differ) — it is dead
// weight from another configuration, safe to delete.
func runArtifacts(dir, appName string, secrets int, seed uint64, candidates int, faultsFlag string, out io.Writer) error {
	store, err := artifact.Open(dir)
	if err != nil {
		return err
	}
	entries, err := store.List()
	if err != nil {
		return err
	}
	app, err := pickApp(appName, secrets)
	if err != nil {
		return err
	}
	faults, err := faultinject.Preset(faultsFlag, seed)
	if err != nil {
		return err
	}
	// Mirror the pipeline configuration of a plain aegisctl run so
	// "current" means "this exact invocation, minus -artifacts, would load
	// the entry".
	fw, err := aegis.New(aegis.Config{
		Seed:              seed,
		FuzzCandidates:    candidates,
		ProfileTraceTicks: 80,
		ProfileRepeats:    4,
		Faults:            faults,
	})
	if err != nil {
		return err
	}
	defer fw.Close()
	inventory, err := fw.ArtifactInventory(app)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "artifact store %s: %d entries\n", dir, len(entries))
	current, stale := 0, 0
	var bytes int64
	for _, e := range entries {
		status, label := "STALE", metaSummary(e.Meta)
		if l, ok := inventory[e.Fingerprint]; ok {
			status, label = "current", l
			current++
		} else {
			stale++
		}
		bytes += e.Size
		fmt.Fprintf(out, "%-14s %s %-14s %8dB %-7s %s\n",
			e.Kind, e.Fingerprint, e.Schema, e.Size, status, label)
	}
	fmt.Fprintf(out, "%d current under these flags, %d stale, %d bytes total\n",
		current, stale, bytes)
	return nil
}

// metaSummary renders an artifact's metadata as sorted k=v pairs.
func metaSummary(meta map[string]string) string {
	keys := make([]string, 0, len(meta))
	for k := range meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+meta[k])
	}
	return strings.Join(parts, " ")
}

// runCtl is the -ctl client: it maps a short command onto one
// aegisd-ctl/v1 request against a running daemon and pretty-prints the
// JSON envelope. Non-2xx responses (shed submits, rejected reloads, bad
// tenants) become errors carrying the daemon's detail.
func runCtl(target string, args []string, out io.Writer) error {
	base, err := ctlURL(target)
	if err != nil {
		return err
	}
	if len(args) == 0 {
		args = []string{"status"}
	}
	cmd, rest := args[0], args[1:]
	var (
		method = "GET"
		path   string
		body   string
	)
	switch cmd {
	case "status":
		path = "daemon"
	case "list":
		path = "tenants"
	case "tenant":
		if len(rest) != 1 {
			return fmt.Errorf("usage: -ctl ... tenant <name>")
		}
		path = "tenant?name=" + url.QueryEscape(rest[0])
	case "attach":
		if len(rest) < 1 || len(rest) > 3 {
			return fmt.Errorf("usage: -ctl ... attach <name> [app [secrets]]")
		}
		spec := map[string]any{"name": rest[0]}
		if len(rest) > 1 {
			spec["app"] = rest[1]
		}
		if len(rest) > 2 {
			n, err := strconv.Atoi(rest[2])
			if err != nil {
				return fmt.Errorf("bad secrets count %q: %w", rest[2], err)
			}
			spec["secrets"] = n
		}
		raw, _ := json.Marshal(spec)
		method, path, body = "POST", "attach", string(raw)
	case "detach", "kill":
		if len(rest) != 1 {
			return fmt.Errorf("usage: -ctl ... %s <name>", cmd)
		}
		raw, _ := json.Marshal(map[string]any{"name": rest[0], "kill": cmd == "kill"})
		method, path, body = "POST", "detach", string(raw)
	case "submit":
		if len(rest) != 2 {
			return fmt.Errorf("usage: -ctl ... submit <name> <jobs>")
		}
		jobs, err := strconv.Atoi(rest[1])
		if err != nil {
			return fmt.Errorf("bad job count %q: %w", rest[1], err)
		}
		raw, _ := json.Marshal(map[string]any{"name": rest[0], "jobs": jobs})
		method, path, body = "POST", "submit", string(raw)
	case "reload":
		if len(rest) != 1 {
			return fmt.Errorf("usage: -ctl ... reload '<json>' (or @file)")
		}
		delta := rest[0]
		if strings.HasPrefix(delta, "@") {
			raw, err := os.ReadFile(delta[1:])
			if err != nil {
				return err
			}
			delta = string(raw)
		}
		method, path, body = "POST", "reload", delta
	default:
		return fmt.Errorf("unknown ctl command %q (want status, list, tenant, attach, detach, kill, submit or reload)", cmd)
	}

	req, err := http.NewRequest(method, base+path, strings.NewReader(body))
	if err != nil {
		return err
	}
	if method == "POST" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(raw)))
	}
	_, err = out.Write(raw)
	return err
}

// ctlURL normalises a -ctl target into the control-API base URL ending
// in /ctl/v1/.
func ctlURL(target string) (string, error) {
	if !strings.Contains(target, "://") {
		target = "http://" + target
	}
	u, err := url.Parse(target)
	if err != nil {
		return "", fmt.Errorf("bad -ctl target: %w", err)
	}
	if u.Path == "" || u.Path == "/" {
		u.Path = "/ctl/v1/"
	}
	u.RawQuery = ""
	return u.String(), nil
}

// runTail is the -tail client: it fetches /flight from a running ops
// server and prints the JSONL to stdout; with -follow it keeps polling
// ?since=<last seq> so new records stream as they are journaled.
func runTail(target string, follow bool, window int, out io.Writer) error {
	base, err := tailURL(target)
	if err != nil {
		return err
	}
	var since uint64
	first := true
	for {
		u := base
		q := url.Values{}
		if window > 0 && first {
			q.Set("window", fmt.Sprint(window))
		}
		if since > 0 {
			q.Set("since", fmt.Sprint(since))
		}
		if len(q) > 0 {
			u += "?" + q.Encode()
		}
		last, lines, err := fetchFlight(u, out, !first)
		if err != nil {
			return err
		}
		if last > since {
			since = last
		}
		_ = lines
		if !follow {
			return nil
		}
		first = false
		time.Sleep(tailPollInterval)
	}
}

// tailURL normalises a -tail target: a bare host:port becomes
// http://host:port/flight; a URL without a path gains /flight.
func tailURL(target string) (string, error) {
	if !strings.Contains(target, "://") {
		target = "http://" + target
	}
	u, err := url.Parse(target)
	if err != nil {
		return "", fmt.Errorf("bad -tail target: %w", err)
	}
	if u.Path == "" || u.Path == "/" {
		u.Path = "/flight"
	}
	u.RawQuery = ""
	return u.String(), nil
}

// fetchFlight streams one /flight response to w, returning the greatest
// record seq seen and the number of record lines. With skipHeader the
// header line is dropped (follow polls re-send it).
func fetchFlight(u string, w io.Writer, skipHeader bool) (uint64, int, error) {
	resp, err := http.Get(u)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return 0, 0, fmt.Errorf("GET %s: %s: %s", u, resp.Status, strings.TrimSpace(string(body)))
	}
	var (
		last  uint64
		lines int
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	headerSeen := false
	for sc.Scan() {
		line := sc.Text()
		if !headerSeen {
			headerSeen = true
			if skipHeader {
				continue
			}
			fmt.Fprintln(w, line)
			continue
		}
		var rec struct {
			Seq uint64 `json:"seq"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err == nil && rec.Seq > last {
			last = rec.Seq
		}
		lines++
		fmt.Fprintln(w, line)
	}
	return last, lines, sc.Err()
}

func pickApp(name string, secrets int) (workload.App, error) {
	switch name {
	case "website":
		sites := workload.Websites()
		if secrets > 0 && secrets < len(sites) {
			sites = sites[:secrets]
		}
		return &workload.WebsiteApp{Sites: sites}, nil
	case "keystroke":
		maxKeys := secrets
		if maxKeys <= 0 || maxKeys > 10 {
			maxKeys = 10
		}
		return &workload.KeystrokeApp{MaxKeys: maxKeys}, nil
	case "dnn":
		zoo := workload.ModelZoo()
		if secrets > 0 && secrets < len(zoo) {
			zoo = zoo[:secrets]
		}
		return &workload.DNNApp{Models: zoo}, nil
	default:
		return nil, fmt.Errorf("unknown app %q (want website, keystroke or dnn)", name)
	}
}
