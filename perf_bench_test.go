package aegis

// Hot-path micro-benchmarks with allocation reporting. These are the
// substrate paths the obfuscator's online budget and the offline pipelines'
// wall-clock ride on; `make bench-alloc` gates their steady-state allocation
// behaviour (see alloc_gate_test.go), and this file tracks their ns/op and
// allocs/op in EXPERIMENTS.md. Run with:
//
//	go test -bench='RDPMC|WorldStep|ObfuscatorTick|FitPCA|MutualInformation' -benchmem -run=^$ .

import (
	"testing"

	"github.com/repro/aegis/internal/benchkit"
	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/microarch"
	"github.com/repro/aegis/internal/obfuscator"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/sev"
	"github.com/repro/aegis/internal/stats"
	"github.com/repro/aegis/internal/telemetry"
	"github.com/repro/aegis/internal/workload"
)

// disableTelemetry turns the default registry off for the benchmark and
// restores it afterwards. Hot-path benchmarks run in the experiment
// harness's `-telemetry=false` configuration; with the registry enabled,
// each obfuscator tick additionally allocates one tracing span, which is
// the cost of observability rather than of the substrate.
func disableTelemetry(b *testing.B) {
	b.Helper()
	reg := telemetry.Default()
	was := reg.Enabled()
	reg.SetEnabled(false)
	b.Cleanup(func() { reg.SetEnabled(was) })
}

// BenchmarkRDPMC measures one noisy counter read — the innermost operation
// of the fuzzer's measurement loop and the obfuscator's kernel module.
func BenchmarkRDPMC(b *testing.B) {
	core := microarch.NewCore(0, microarch.DefaultCoreConfig(), nil)
	pmu := hpc.NewPMU(core, rng.New(3).Split("pmu"))
	cat := hpc.NewAMDEpyc7252Catalog(1)
	if err := pmu.Program(0, cat.MustByName("RETIRED_UOPS")); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pmu.RDPMC(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorldStep measures one scheduler tick of a 1-vCPU guest running
// the website workload — the per-tick cost every experiment pays per sample.
func BenchmarkWorldStep(b *testing.B) {
	world := sev.NewWorld(sev.DefaultConfig(4))
	vm, err := world.LaunchVM(sev.VMConfig{VCPUs: 1, SEV: true})
	if err != nil {
		b.Fatal(err)
	}
	runner := workload.NewRunner("bench", workload.DefaultLibrary(1), rng.New(5).Split("r"))
	if err := vm.AddProcess(0, runner); err != nil {
		b.Fatal(err)
	}
	world.Run(8) // settle into the idle steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		world.Step()
	}
}

// benchSegment returns a small stacked gadget segment (load-class reset and
// trigger variants) for obfuscator benchmarks and allocation gates.
func benchSegment(tb testing.TB) []isa.Variant {
	tb.Helper()
	legal := isa.Cleanup(isa.SpecAMDEpyc(1), isa.AMDEpycFeatures()).Legal
	var seg []isa.Variant
	for _, v := range legal {
		if v.Class == isa.ClassLoad || v.Class == isa.ClassFlush {
			seg = append(seg, v)
		}
		if len(seg) == 4 {
			break
		}
	}
	if len(seg) == 0 {
		tb.Fatal("no load/flush variants in legal list")
	}
	return seg
}

// BenchmarkObfuscatorTick measures one full obfuscator tick (kernel-module
// read for observation-based mechanisms, noise draw, clip, gadget injection)
// driven through World.Step, per mechanism.
func BenchmarkObfuscatorTick(b *testing.B) {
	cat := hpc.NewAMDEpyc7252Catalog(1)
	ref := cat.MustByName("RETIRED_UOPS")
	seg := benchSegment(b)
	for _, mechName := range []string{"laplace", "dstar"} {
		b.Run(mechName, func(b *testing.B) {
			disableTelemetry(b)
			var mech obfuscator.Mechanism
			var err error
			switch mechName {
			case "laplace":
				mech, err = obfuscator.NewLaplaceMechanism(1, 1500, rng.New(6).Split("lap"))
			case "dstar":
				mech, err = obfuscator.NewDStarMechanism(1, 1500, rng.New(7).Split("dstar"))
			}
			if err != nil {
				b.Fatal(err)
			}
			obf, err := obfuscator.New(obfuscator.Config{
				Mechanism: mech,
				Segment:   seg,
				RefEvent:  ref,
				ClipBound: 20000,
				Seed:      11,
			})
			if err != nil {
				b.Fatal(err)
			}
			world := sev.NewWorld(sev.DefaultConfig(9))
			vm, err := world.LaunchVM(sev.VMConfig{VCPUs: 1, SEV: true})
			if err != nil {
				b.Fatal(err)
			}
			if err := vm.AddProcess(0, obf); err != nil {
				b.Fatal(err)
			}
			world.Run(8) // attach the kernel module, settle the caches
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				world.Step()
			}
		})
	}
}

// BenchmarkFitPCA measures one PCA fit over a trace population of the
// profiler's ranking shape (secrets*repeats traces x TraceTicks features)
// through the arena-reusing path the profiler's scoring loop uses.
// Fixtures come from internal/benchkit so the aegis-bench per-kernel
// harness measures exactly the same work.
func BenchmarkFitPCA(b *testing.B) {
	rows := benchkit.PCARows(72, 150)
	b.Run("scratch", func(b *testing.B) {
		var s stats.Scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.FitPCA(rows, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBinnedMI measures one 2-D histogram MI estimate at the Fig. 9c
// shape (400 paired samples, 16 bins), in both the one-shot and
// arena-reusing forms.
func BenchmarkBinnedMI(b *testing.B) {
	xs, ys := benchkit.BinnedPairs(400)
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := stats.BinnedMI(xs, ys, 16); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scratch", func(b *testing.B) {
		var s stats.Scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.BinnedMI(xs, ys, 16); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMutualInformation measures one MI quadrature over six secret
// classes at the profiler's default grid resolution, in both the one-shot
// and arena-reusing forms.
func BenchmarkMutualInformation(b *testing.B) {
	classes := benchkit.MIClasses(6)
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := new(stats.Scratch).MutualInformation(classes, 600); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scratch", func(b *testing.B) {
		var s stats.Scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.MutualInformation(classes, 600); err != nil {
				b.Fatal(err)
			}
		}
	})
}
