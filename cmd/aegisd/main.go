// Command aegisd is the multi-tenant protection daemon: one offline fuzz
// campaign builds a shared gadget plan, then a fleet of tenant VMs — each
// running its application plus a per-tenant obfuscator — is driven off a
// single tick loop. Operators steer it over the aegisd-ctl/v1 JSON API
// mounted on the ops surface (attach/detach tenants, submit work, live
// reload) and observe it through /metrics, /readyz and the daemon's
// deterministic flight journal on /flight.
//
// Usage:
//
//	aegisd -addr :9144 [flags]
//
// The daemon owns the tick loop but the wall clock lives only here:
// -tick-interval paces Step calls, so everything below cmd/ stays
// deterministic and seed-replayable. SIGHUP re-reads -config (a JSON
// tunables delta) and stages it atomically at the next tick boundary;
// SIGINT/SIGTERM shut down gracefully.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	aegis "github.com/repro/aegis"
	"github.com/repro/aegis/internal/daemon"
	"github.com/repro/aegis/internal/faultinject"
	"github.com/repro/aegis/internal/ops"
	"github.com/repro/aegis/internal/workload"
)

// opsAddrNotify, when set (by tests), receives the bound ops address as
// soon as the server is up.
var opsAddrNotify func(addr string)

// profileNotify, when set (by tests), receives the application aegisd
// profiles to select events.
var profileNotify func(app workload.App)

// planNotify, when set (by tests), receives the gadget plan aegisd deploys.
var planNotify func(gadgets *aegis.GadgetSet)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "aegisd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("aegisd", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":9144", "ops + control-API listen address")
		appName      = fs.String("app", "website", "default tenant application: website | keystroke | dnn")
		mechanism    = fs.String("mechanism", daemon.MechanismLaplace, "noise mechanism: laplace | dstar | random | constant")
		epsilon      = fs.Float64("epsilon", 1.0, "privacy budget (or bound/peak for baselines)")
		seed         = fs.Uint64("seed", 1, "daemon seed; every tenant seed derives from it")
		eventsFlag   = fs.String("events", "", "comma-separated HPC events to protect (skips profiling)")
		topEvents    = fs.Int("top", 4, "without -events: number of profiled events to protect")
		secrets      = fs.Int("secrets", 4, "per-tenant secret alphabet size")
		candidates   = fs.Int("candidates", 400, "fuzzing candidates per event")
		tenants      = fs.Int("tenants", 0, "tenants to attach at startup (named t000, t001, ...)")
		tickInterval = fs.Duration("tick-interval", 50*time.Millisecond, "wall-clock pacing of the protection tick loop")
		ticks        = fs.Int("ticks", 0, "stop after this many ticks (0 = run until SIGINT/SIGTERM)")
		queueCap     = fs.Int("queue-cap", 64, "per-tenant work queue capacity")
		maxItems     = fs.Int("max-items-per-tick", 8, "queued jobs applied per tenant per tick")
		loadPerTick  = fs.Int("load-per-tick", 0, "internal load generator: jobs enqueued per tenant per tick")
		parallelism  = fs.Int("parallelism", 0, "tenant tick fan-out goroutines (<= 1 = serial; journal is identical either way)")
		faultsFlag   = fs.String("faults", faultinject.PresetOff, "substrate fault preset: off | light | heavy (deterministic, seed-derived)")
		configPath   = fs.String("config", "", "JSON tunables file re-read on SIGHUP and staged as a live reload")
		artifactDir  = fs.String("artifact-dir", "", "artifact store directory: a warm start resumes profiling and fuzzing from it (same plan, only faster)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	faults, err := faultinject.Preset(*faultsFlag, *seed)
	if err != nil {
		return err
	}
	fw, err := aegis.New(aegis.Config{
		Seed: *seed, FuzzCandidates: *candidates, Faults: faults, ArtifactDir: *artifactDir,
	})
	if err != nil {
		return err
	}
	defer fw.Close()

	// One shared protection plan for the whole fleet: explicit events, or
	// a profiling pass over the default application.
	var events []string
	if *eventsFlag != "" {
		for _, e := range strings.Split(*eventsFlag, ",") {
			if e = strings.TrimSpace(e); e != "" {
				events = append(events, e)
			}
		}
	} else {
		app, err := daemon.BuildApp(*appName, *secrets)
		if err != nil {
			return err
		}
		if profileNotify != nil {
			profileNotify(app)
		}
		fmt.Printf("profiling %q to select events (use -events to skip)...\n", app.Name())
		profile, err := fw.Profile(app)
		if err != nil {
			return err
		}
		events = profile.Top(*topEvents)
	}
	fmt.Printf("fuzzing gadget plan for %d event(s): %s\n", len(events), strings.Join(events, ", "))
	gadgets, err := fw.Fuzz(events)
	if err != nil {
		return err
	}
	fmt.Printf("plan: %d gadgets, %d instructions stacked\n", gadgets.CoverSize, gadgets.SegmentLen)
	if planNotify != nil {
		planNotify(gadgets)
	}

	d, err := daemon.New(daemon.Config{
		Segment:         gadgets.Segment(),
		RefEvent:        gadgets.RefEvent(),
		Mechanism:       *mechanism,
		Epsilon:         *epsilon,
		QueueCapacity:   *queueCap,
		MaxItemsPerTick: *maxItems,
		LoadPerTick:     *loadPerTick,
		Parallelism:     *parallelism,
		Seed:            *seed,
		Faults:          faults,
	})
	if err != nil {
		return err
	}
	for i := 0; i < *tenants; i++ {
		spec := daemon.AttachSpec{Name: fmt.Sprintf("t%03d", i), App: *appName, Secrets: *secrets}
		if err := d.Attach(spec); err != nil {
			return err
		}
	}

	srv := ops.NewServer(ops.Config{
		Addr: *addr, Recorder: d.Journal(), Budget: ops.NewTelemetryBudget(nil),
	})
	srv.RegisterReadiness(d.ReadyProbe())
	srv.RegisterHealth(d.HealthProbe())
	srv.Mount(daemon.CtlPrefix, "ctl", d.CtlHandler())
	bound, err := srv.Start()
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("aegisd: control API http://%s%s (ops: healthz readyz metrics flight snapshot)\n",
		bound, daemon.CtlPrefix)
	if opsAddrNotify != nil {
		opsAddrNotify(bound)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)

	// The wall clock stops here: everything below cmd/ sees only Step().
	ticker := time.NewTicker(*tickInterval)
	defer ticker.Stop()
loop:
	for {
		select {
		case <-ticker.C:
			d.Step()
			if *ticks > 0 && d.Tick() >= int64(*ticks) {
				break loop
			}
		case <-hup:
			if err := reloadFromFile(d, *configPath); err != nil {
				fmt.Fprintln(os.Stderr, "aegisd: reload:", err)
			} else {
				fmt.Println("aegisd: reload staged from", *configPath)
			}
		case s := <-stop:
			fmt.Printf("aegisd: %v, shutting down\n", s)
			break loop
		}
	}

	st := d.Status()
	fmt.Printf("aegisd: stopped at tick %d — %d tenants, %d enqueued / %d processed / %d shed, %d degraded tenant ticks\n",
		st.Tick, st.Tenants, st.Enqueued, st.Processed, st.Shed, st.DegradedTenantTicks)
	return nil
}

// reloadFromFile reads a JSON tunables delta and stages it; unknown
// fields and invalid values reject the whole delta (the old config stays
// live), mirroring POST /ctl/v1/reload.
func reloadFromFile(d *daemon.Daemon, path string) error {
	if path == "" {
		return fmt.Errorf("no -config file to reload")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	var tun daemon.Tunables
	if err := dec.Decode(&tun); err != nil {
		return fmt.Errorf("bad tunables in %s: %w", path, err)
	}
	return d.Reload(tun)
}
