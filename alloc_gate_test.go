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
	"testing"

	"github.com/repro/aegis/internal/benchkit"
	"github.com/repro/aegis/internal/daemon"
	"github.com/repro/aegis/internal/daemon/daemontest"
	"github.com/repro/aegis/internal/faultinject"
	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/microarch"
	"github.com/repro/aegis/internal/obfuscator"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/sev"
	"github.com/repro/aegis/internal/stats"
	"github.com/repro/aegis/internal/telemetry"
	"github.com/repro/aegis/internal/telemetry/flight"
	"github.com/repro/aegis/internal/workload"
)

// quietTelemetry disables the default registry for the test (the hot-path
// configuration the experiment harness runs with via -telemetry=false) and
// restores it afterwards. With the registry enabled, a tick additionally
// allocates one tracing span — the cost of observability, not the
// substrate.
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

// TestZeroAllocObfuscatorTick gates the full per-tick protection loop
// (kernel-module read, noise draw, clip, gadget injection) for both DP
// mechanisms and for a two-plan (Laplace plus d*) multi-event deployment,
// driven through World.Step like a deployed obfuscator.
func TestZeroAllocObfuscatorTick(t *testing.T) {
	quietTelemetry(t)
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
			requireZeroAllocs(t, "obfuscator tick "+tc.name, 128, func() { world.Step() })
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
// own always-enabled recorder, so the gate covers the recording path.
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
	requireZeroAllocs(t, "daemon.Step", 256, func() { d.Step() })
	if d.Journal().Total() == before {
		t.Error("no tick summaries journaled: the gate must cover the recording path")
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
	rows := benchkit.PCARows(72, 150)
	classes := benchkit.MIClasses(6)
	xs, ys := benchkit.BinnedPairs(400)
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
