//go:build !race

// Allocation gates for the steady-state hot paths (`make bench-alloc`).
// Each gate warms the path up, then asserts 0 allocs/op with
// testing.AllocsPerRun. The file is excluded under -race because race
// instrumentation itself allocates; `make race` still exercises the same
// code paths for data races through the regular tests.
//
// These gates have a static twin: every function exercised here carries a
// //aegis:hotpath annotation, and the aegis-lint hotpath rule (`make lint`,
// internal/analysis/rule_hotpath.go) rejects allocating constructs in
// annotated functions at review time, before a benchmark ever runs.
package aegis

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/repro/aegis/internal/daemon"
	"github.com/repro/aegis/internal/daemon/daemontest"
	"github.com/repro/aegis/internal/faultinject"
	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/microarch"
	"github.com/repro/aegis/internal/obfuscator"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/sev"
	"github.com/repro/aegis/internal/stats"
	"github.com/repro/aegis/internal/telemetry"
	"github.com/repro/aegis/internal/telemetry/flight"
	"github.com/repro/aegis/internal/workload"
)

// quietTelemetry disables the default registry for the test, as the repo
// benchmark's untimed fleet and campaign runs do, and restores it
// afterwards. An enabled registry allocates nothing on these paths either:
// the obfuscator and daemon tick gates measure both settings.
func quietTelemetry(t *testing.T) {
	t.Helper()
	reg := telemetry.Default()
	was := reg.Enabled()
	reg.SetEnabled(false)
	t.Cleanup(func() { reg.SetEnabled(was) })
}

// requireZeroAllocs asserts a warmed-up path allocates nothing per run.
func requireZeroAllocs(t *testing.T, name string, runs int, f func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(runs, f); avg != 0 {
		t.Errorf("%s: %v allocs/op, want 0", name, avg)
	}
}

// TestZeroAllocRDPMC gates the noisy counter read, the innermost operation
// of the fuzzer's measurement loop and the obfuscator's kernel module.
func TestZeroAllocRDPMC(t *testing.T) {
	quietTelemetry(t)
	core := microarch.NewCore(0, microarch.DefaultCoreConfig(), nil)
	pmu := hpc.NewPMU(core, rng.New(3).Split("pmu"))
	cat := hpc.NewAMDEpyc7252Catalog(1)
	if err := pmu.Program(0, cat.MustByName("RETIRED_UOPS")); err != nil {
		t.Fatal(err)
	}
	requireZeroAllocs(t, "PMU.RDPMC", 512, func() {
		if _, err := pmu.RDPMC(0); err != nil {
			t.Fatal(err)
		}
	})
}

// TestZeroAllocWorldStep gates one scheduler tick of a 1-vCPU SEV guest in
// its idle steady state — the per-tick cost every experiment pays per
// sample.
func TestZeroAllocWorldStep(t *testing.T) {
	quietTelemetry(t)
	rec := flight.Default()
	before := rec.Total()
	world := sev.NewWorld(sev.DefaultConfig(4))
	vm, err := world.LaunchVM(sev.VMConfig{VCPUs: 1, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	runner := workload.NewRunner("gate", workload.DefaultLibrary(1), rng.New(5).Split("r"))
	if err := vm.AddProcess(0, runner); err != nil {
		t.Fatal(err)
	}
	world.Run(8) // settle into the idle steady state
	requireZeroAllocs(t, "World.Step", 256, func() { world.Step() })
	if rec.Total() == before {
		t.Error("no world-step summaries journaled: the gate must cover the recording path")
	}
}

// TestZeroAllocRunnerStep gates a whole website page load, every tick of
// it through World.Step: the runner draws each chunk of app ops into a
// stack array and retires it with GuestExecutor.ExecuteRun, and reuses
// its sampler's tables across phases and jobs. Two loads warm the
// tables; the gate's own warm-up run takes the third and the measured run
// the fourth.
func TestZeroAllocRunnerStep(t *testing.T) {
	quietTelemetry(t)
	world := sev.NewWorld(sev.DefaultConfig(4))
	vm, err := world.LaunchVM(sev.VMConfig{VCPUs: 1, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	runner := workload.NewRunner("gate", workload.DefaultLibrary(1), rng.New(5).Split("r"))
	if err := vm.AddProcess(0, runner); err != nil {
		t.Fatal(err)
	}
	jobs := rng.New(6)
	for range 4 {
		runner.Enqueue(workload.WebsiteJob("google.com", jobs))
	}
	runJob := func() {
		for done := runner.Completed(); runner.Completed() == done; {
			world.Step()
		}
	}
	runJob()
	runJob()
	requireZeroAllocs(t, "Runner.Step over a website job", 1, runJob)
	if runner.Pending() != 0 {
		t.Fatalf("%d jobs still queued, want all 4 run", runner.Pending())
	}
}

// TestZeroAllocRunnerJobs gates what a runner keeps per finished job: a
// count and a tick total, never a per-job record. It finishes 1,000
// pre-enqueued one-instruction jobs, one per tick; the gate's warm-up run
// takes the first 500 and its measured run the last 500, which must not
// allocate.
func TestZeroAllocRunnerJobs(t *testing.T) {
	quietTelemetry(t)
	world := sev.NewWorld(sev.DefaultConfig(4))
	vm, err := world.LaunchVM(sev.VMConfig{VCPUs: 1, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	runner := workload.NewRunner("gate", workload.DefaultLibrary(1), rng.New(5).Split("r"))
	if err := vm.AddProcess(0, runner); err != nil {
		t.Fatal(err)
	}
	const jobs = 1000
	job := workload.Job{Label: "tiny", Phases: []workload.Phase{{Mix: workload.Mix{isa.ClassALU: 1}, Instructions: 1}}}
	for range jobs {
		runner.Enqueue(job)
	}
	requireZeroAllocs(t, "Runner finishing 500 queued jobs", 1, func() {
		for done := runner.Completed(); runner.Completed() < done+jobs/2; {
			world.Step()
		}
	})
	if runner.Pending() != 0 || runner.Completed() != jobs {
		t.Fatalf("%d jobs pending and %d completed, want 0 and %d", runner.Pending(), runner.Completed(), jobs)
	}
}

// TestZeroAllocObfuscatorTick gates the full per-tick protection loop
// (kernel-module read, noise draw, clip, gadget injection) for both DP
// mechanisms and for a two-plan (Laplace plus d*) multi-event deployment,
// driven through World.Step like a deployed obfuscator, with the default
// registry disabled and then enabled, when each tick is also timed.
func TestZeroAllocObfuscatorTick(t *testing.T) {
	quietTelemetry(t)
	ticks := telemetry.Stage("obfuscator.tick")
	rec := flight.Default()
	before := rec.Total()
	cat := hpc.NewAMDEpyc7252Catalog(1)
	ref := cat.MustByName("RETIRED_UOPS")
	seg := benchSegment(t)
	single := func(mech obfuscator.Mechanism, err error) (*obfuscator.Obfuscator, error) {
		if err != nil {
			return nil, err
		}
		return obfuscator.New(obfuscator.Config{
			Mechanism: mech,
			Segment:   seg,
			RefEvent:  ref,
			ClipBound: 20000,
			Seed:      11,
		})
	}
	for _, tc := range []struct {
		name string
		obf  func() (*obfuscator.Obfuscator, error)
	}{
		{"laplace", func() (*obfuscator.Obfuscator, error) {
			return single(obfuscator.NewLaplaceMechanism(1, 1500, rng.New(6).Split("lap")))
		}},
		{"dstar", func() (*obfuscator.Obfuscator, error) {
			return single(obfuscator.NewDStarMechanism(1, 1500, rng.New(7).Split("dstar")))
		}},
		{"multi", func() (*obfuscator.Obfuscator, error) {
			lap, err := obfuscator.NewLaplaceMechanism(1, 1500, rng.New(8).Split("lap"))
			if err != nil {
				return nil, err
			}
			dstar, err := obfuscator.NewDStarMechanism(1, 1500, rng.New(8).Split("dstar"))
			if err != nil {
				return nil, err
			}
			return obfuscator.NewMulti([]obfuscator.Plan{
				{Mechanism: lap, Segment: seg, Event: ref, ClipBound: 20000},
				{Mechanism: dstar, Segment: seg, Event: cat.MustByName("LS_DISPATCH"), ClipBound: 20000},
			}, 11, faultinject.Config{})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			obf, err := tc.obf()
			if err != nil {
				t.Fatal(err)
			}
			world := sev.NewWorld(sev.DefaultConfig(9))
			vm, err := world.LaunchVM(sev.VMConfig{VCPUs: 1, SEV: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := vm.AddProcess(0, obf); err != nil {
				t.Fatal(err)
			}
			world.Run(8) // attach the kernel modules, settle the caches
			for _, on := range []bool{false, true} {
				telemetry.Default().SetEnabled(on)
				timed := ticks.Count()
				requireZeroAllocs(t, fmt.Sprintf("obfuscator tick %s (telemetry %v)", tc.name, on), 128,
					func() { world.Step() })
				if got := ticks.Count() - timed; on == (got == 0) {
					t.Errorf("telemetry %v: %d ticks timed", on, got)
				}
			}
		})
	}
	if rec.Total() == before {
		t.Error("no obfuscator-tick records journaled: the gate must cover the recording path")
	}
}

// TestZeroAllocDaemonTick gates the daemon's steady-state tick — the
// per-tenant fan-out plus the serialized journal barrier — with one
// protecting tenant and an empty queue, the configuration a healthy
// multi-tenant deployment spends its life in. The daemon journal is its
// own always-enabled recorder, so the gate covers the recording path; the
// default registry is measured disabled and then enabled, as a live aegisd
// runs it.
func TestZeroAllocDaemonTick(t *testing.T) {
	quietTelemetry(t)
	d, err := daemon.New(daemontest.BaseConfig(13))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Attach(daemon.AttachSpec{Name: "gate"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ { // promote to Protecting, settle the guest caches
		d.Step()
	}
	before := d.Journal().Total()
	for _, on := range []bool{false, true} {
		telemetry.Default().SetEnabled(on)
		requireZeroAllocs(t, fmt.Sprintf("daemon.Step (telemetry %v)", on), 256, func() { d.Step() })
	}
	if d.Journal().Total() == before {
		t.Error("no tick summaries journaled: the gate must cover the recording path")
	}
}

// TestZeroAllocDaemonHandOff gates what handing a queued item off to a
// tenant's guest costs: the item moves into the tenant's backlog as its
// 8-byte work item, and the job is built only when the runner starts it.
// One Protecting website tenant, warmed up inside its first job, then
// gets 8 items a tick while its runner stays inside that job, so every
// item of the measured window lands in the backlog. The backlog doubles
// when full, which across whole doublings costs 16 B per item: the
// window takes it from empty to 128 items in 128 slots.
//
// The window reads the process-wide TotalAlloc, so it runs on one P: with
// a second P, the runtime can start an OS thread mid-window (to run a
// garbage-collector worker, say, or a goroutine left queued when
// ReadMemStats restarts the world), and a new thread's runtime
// structures cost about 5.5 KB of heap, 43 B per item here.
func TestZeroAllocDaemonHandOff(t *testing.T) {
	quietTelemetry(t)
	const (
		perTick  = 8
		ticks    = 16
		maxBytes = 16
	)
	d, err := daemon.New(daemontest.BaseConfig(15))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Attach(daemon.AttachSpec{Name: "handoff"}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Submit("handoff", 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ { // promote to Protecting, start the job, settle the guest
		d.Step()
	}
	load := perTick
	if err := d.Reload(daemon.Tunables{LoadPerTick: &load}); err != nil {
		t.Fatal(err)
	}
	procs := runtime.GOMAXPROCS(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ticks; i++ {
		d.Step()
	}
	runtime.ReadMemStats(&after)
	runtime.GOMAXPROCS(procs)
	jf, err := d.TenantJobs("handoff")
	if err != nil {
		t.Fatal(err)
	}
	if jf.Completed != 0 || jf.Running != 1 || jf.Backlog != perTick*ticks {
		t.Fatalf("job funnel %+v: the runner must stay inside its first job for the whole window", jf)
	}
	per := float64(after.TotalAlloc-before.TotalAlloc) / (perTick * ticks)
	t.Logf("daemon hand-off allocates %.1f B per item", per)
	if per > maxBytes {
		t.Errorf("daemon hand-off allocates %.1f B per item, want at most %d", per, maxBytes)
	}
}

// TestZeroAllocFlightRecord gates the recorder write itself: a journaled
// record is a mutex-guarded ring store plus counter bumps, and must not
// allocate.
func TestZeroAllocFlightRecord(t *testing.T) {
	quietTelemetry(t)
	rec := flight.NewRecorder(1024)
	h := rec.Handle(flight.KindFault)
	requireZeroAllocs(t, "flight.Handle.Record", 512, func() {
		h.Record(1, flight.CodeFaultPMURead, flight.CodeNone, 1, 2, 3)
	})
	requireZeroAllocs(t, "flight.Handle.Incident", 512, func() {
		h.Incident(2, flight.CodeFaultCounterSaturation, flight.CodeNone, 1, 2, 3)
	})
	if rec.Total() == 0 || rec.Incidents() == 0 {
		t.Fatalf("gate wrote nothing: total=%d incidents=%d", rec.Total(), rec.Incidents())
	}
}

// TestZeroAllocStatsScratch gates the arena-reusing numeric kernels at the
// shapes the profiler's scoring loop uses.
func TestZeroAllocStatsScratch(t *testing.T) {
	rows := pcaRows(72, 150)
	classes := miClasses(6)
	xs, ys := binnedPairs(400)
	var s stats.Scratch
	requireZeroAllocs(t, "Scratch.FitPCA", 32, func() {
		if _, err := s.FitPCA(rows, 1); err != nil {
			t.Fatal(err)
		}
	})
	requireZeroAllocs(t, "Scratch.MutualInformation", 32, func() {
		if _, err := s.MutualInformation(classes, 600); err != nil {
			t.Fatal(err)
		}
	})
	requireZeroAllocs(t, "Scratch.BinnedMI", 32, func() {
		if _, err := s.BinnedMI(xs, ys, 16); err != nil {
			t.Fatal(err)
		}
	})
}

// TestZeroAllocPerCacheSet gates core construction, which a world pays once
// per core its guests pin (the fuzzer resets pooled cores instead, see
// TestZeroAllocCoreReset): each cache and the TLB is one flat allocation,
// so a core makes the same small number of allocations however many sets
// its caches have. A default core's bytes are bounded too; its L2's ways
// are most of them.
func TestZeroAllocPerCacheSet(t *testing.T) {
	const (
		maxAllocs = 12 // the core, 3 caches, TLB and predictor, and their 6 tables
		maxBytes  = 40 << 10
		cores     = 16
	)
	cfg := microarch.DefaultCoreConfig()
	base := testing.AllocsPerRun(16, func() { coreSink = microarch.NewCore(0, cfg, nil) })
	if base > maxAllocs {
		t.Errorf("NewCore: %v allocs, want at most %d", base, maxAllocs)
	}
	big := cfg
	big.L1DSets, big.L1ISets, big.L2Sets = 4*cfg.L1DSets, 4*cfg.L1ISets, 4*cfg.L2Sets
	if n := testing.AllocsPerRun(16, func() { coreSink = microarch.NewCore(0, big, nil) }); n != base {
		t.Errorf("NewCore with 4x the sets: %v allocs, want %v as with the default sets", n, base)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cores; i++ {
		coreSink = microarch.NewCore(0, cfg, nil)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / cores
	t.Logf("NewCore allocates %d B", per)
	if per > maxBytes {
		t.Errorf("NewCore allocates %d B, want at most %d", per, maxBytes)
	}
}

// TestZeroAllocWebsiteJobMembership gates a website job build's check
// that the secret is one of the app's sites: with the daemon's four-site
// app and with the full default list, Job allocates exactly what
// WebsiteJob, the page load itself, does.
func TestZeroAllocWebsiteJobMembership(t *testing.T) {
	four, err := daemon.BuildApp("website", 4)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	for _, app := range []workload.App{four, &workload.WebsiteApp{}} {
		site := app.Secrets()[3]
		page := testing.AllocsPerRun(16, func() { jobSink = workload.WebsiteJob(site, r) })
		job := testing.AllocsPerRun(16, func() {
			if jobSink, err = app.Job(site, r); err != nil {
				t.Fatal(err)
			}
		})
		if job != page {
			t.Errorf("%d-site app: Job(%q) makes %v allocs, WebsiteJob %v", len(app.Secrets()), site, job, page)
		}
	}
}

var jobSink workload.Job

// TestZeroAllocCoreReset gates Core.Reset, which the fuzzer runs on a
// pooled core before every signature it measures: returning a core to cold
// clears its tables in place.
func TestZeroAllocCoreReset(t *testing.T) {
	core := microarch.NewCore(0, microarch.DefaultCoreConfig(), nil)
	requireZeroAllocs(t, "Core.Reset", 64, core.Reset)
}

// TestZeroAllocTemplateWorld gates the profiler's template world, a 1-vCPU
// guest on a fresh host: cores are built only when a vCPU is pinned, so
// set-up makes the same number of allocations however many physical cores
// the host has.
func TestZeroAllocTemplateWorld(t *testing.T) {
	quietTelemetry(t)
	allocs := func(cores int) float64 {
		cfg := sev.DefaultConfig(4)
		cfg.PhysicalCores = cores
		return testing.AllocsPerRun(16, func() {
			if _, err := sev.NewWorld(cfg).LaunchVM(sev.VMConfig{VCPUs: 1, SEV: true}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, big := allocs(8), allocs(32); big != small {
		t.Errorf("NewWorld+LaunchVM: %v allocs with 32 cores, want %v as with 8", big, small)
	}
}

// TestZeroAllocLibraryFootprint gates what an aegisd tenant pays for its
// instruction library at attach: DefaultLibrary replays the seed's alias
// draws over documented ops decoded once per process, so it makes a few
// allocations and keeps only one-byte indices into the shared op table,
// instead of generating and cleaning a full 14k-variant specification.
// The draws stream into a stack buffer, so a build allocates little more
// than the library keeps.
func TestZeroAllocLibraryFootprint(t *testing.T) {
	const (
		maxAllocs   = 32
		maxRetained = 8 << 10
		maxBuilt    = 8 << 10
		libs        = 64
	)
	seed := uint64(1)
	if n := testing.AllocsPerRun(16, func() { seed++; librarySink = workload.DefaultLibrary(seed) }); n > maxAllocs {
		t.Errorf("DefaultLibrary: %v allocs, want at most %d", n, maxAllocs)
	}
	kept := make([]*workload.Library, libs)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range kept {
		kept[i] = workload.DefaultLibrary(uint64(100 + i))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / libs; per > maxRetained {
		t.Errorf("DefaultLibrary retains %d B per library, want at most %d", per, maxRetained)
	}
	if per := (after.TotalAlloc - before.TotalAlloc) / libs; per > maxBuilt {
		t.Errorf("DefaultLibrary allocates %d B per build, want at most %d", per, maxBuilt)
	}
	runtime.KeepAlive(kept)
}

// TestZeroAllocAttachBytes gates what one aegisd Daemon.Attach allocates,
// garbage included: the tenant's world, core, library, runner and
// obfuscator. The library's alias draws stream through a stack buffer,
// and the obfuscator reuses the segment calibration of the daemon's first
// deploy instead of building a calibration core per attach.
func TestZeroAllocAttachBytes(t *testing.T) {
	quietTelemetry(t)
	const (
		tenants  = 32
		maxBytes = 64 << 10
	)
	d, err := daemon.New(daemontest.BaseConfig(14))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Attach(daemon.AttachSpec{Name: "warm"}); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < tenants; i++ {
		if err := d.Attach(daemon.AttachSpec{Name: fmt.Sprintf("t%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / tenants
	t.Logf("Daemon.Attach allocates %d B per tenant", per)
	if per > maxBytes {
		t.Errorf("Daemon.Attach allocates %d B per tenant, want at most %d", per, maxBytes)
	}
	runtime.KeepAlive(d)
}

// TestZeroAllocTenantFootprint gates the heap an idle aegisd tenant keeps
// once attached, for each DP mechanism: its SEV world and core (31-bit
// tags in uint32 cache ways), app runner, queue and obfuscator. The d* memo is 64 level slots and each
// noise calculator buffers 64 samples, so neither grows with the ticks a
// tenant has run nor costs a d* tenant more than a Laplace one.
func TestZeroAllocTenantFootprint(t *testing.T) {
	quietTelemetry(t)
	const (
		tenants     = 32
		maxRetained = 64 << 10
	)
	for _, mech := range []string{daemon.MechanismLaplace, daemon.MechanismDStar} {
		t.Run(mech, func(t *testing.T) {
			cfg := daemontest.BaseConfig(14)
			cfg.Mechanism = mech
			d, err := daemon.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := 0; i < tenants; i++ {
				if err := d.Attach(daemon.AttachSpec{Name: fmt.Sprintf("t%d", i)}); err != nil {
					t.Fatal(err)
				}
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / tenants
			if per > maxRetained {
				t.Errorf("%s: %d B retained per idle tenant, want at most %d", mech, per, maxRetained)
			}
			runtime.KeepAlive(d)
		})
	}
}

// TestZeroAllocFrameworkNew gates one cold aegis.New, the set-up every
// campaign and every aegisd start pays before any simulation: the AMD
// event catalog and the cleaned-up 14k-variant ISA specification. Names
// are formatted by appends, each variant is built once and the legal
// subset is sized once, so a build makes about 7,200 allocations of about
// 2.7 MB, most of it the specification's variants; the bounds leave
// headroom above that. The registry's state does not change either count.
func TestZeroAllocFrameworkNew(t *testing.T) {
	quietTelemetry(t)
	const (
		maxAllocs = 8000
		maxBytes  = 3 << 20
		builds    = 8
	)
	build := func() {
		fw, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		fw.Close()
	}
	if n := testing.AllocsPerRun(builds, build); n > maxAllocs {
		t.Errorf("aegis.New makes %v allocs, want at most %d", n, maxAllocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / builds
	t.Logf("aegis.New allocates %d B", per)
	if per > maxBytes {
		t.Errorf("aegis.New allocates %d B, want at most %d", per, maxBytes)
	}
}
