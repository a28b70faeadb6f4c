package aegis

// Hot-path micro-benchmarks with allocation reporting. These are the
// substrate paths the obfuscator's online budget and the offline pipelines'
// wall-clock ride on; `make bench-alloc` gates their steady-state allocation
// behaviour (see alloc_gate_test.go), and EXPERIMENTS.md records their ns/op
// and allocs/op. End-to-end and per-layer costs are measured by the repo
// benchmark in bench/ (see bench/README.md). Run with:
//
//	go test -bench='RDPMC|WorldStep|RunnerStep|SimulatedInstruction|DefaultLibrary|ColdSignature|ObfuscatorTick|FitPCA|BinnedMI|MutualInformation' -benchmem -run=^$ .

import (
	"testing"

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
// restores it afterwards, as the repo benchmark's untimed fleet and
// campaign runs do, so a hot-path benchmark measures the substrate
// without the clock reads and histogram updates of its stage timers.
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

// BenchmarkRunnerStep measures one scheduler tick of a 1-vCPU guest whose
// runner always has a website page load queued: the per-instruction draw
// of a class, an op from the library and its retirement on the core. It
// also reports host ns per simulated instruction.
func BenchmarkRunnerStep(b *testing.B) {
	world := sev.NewWorld(sev.DefaultConfig(4))
	vm, err := world.LaunchVM(sev.VMConfig{VCPUs: 1, SEV: true})
	if err != nil {
		b.Fatal(err)
	}
	runner := workload.NewRunner("bench", workload.DefaultLibrary(1), rng.New(5).Split("r"))
	if err := vm.AddProcess(0, runner); err != nil {
		b.Fatal(err)
	}
	pc, err := vm.PhysicalCore(0)
	if err != nil {
		b.Fatal(err)
	}
	core, err := world.Core(pc)
	if err != nil {
		b.Fatal(err)
	}
	jobs := rng.New(6)
	b.ReportAllocs()
	b.ResetTimer()
	start := core.Counters()[microarch.SigInstructions]
	for i := 0; i < b.N; i++ {
		if runner.Pending() == 0 {
			runner.Enqueue(workload.WebsiteJob("google.com", jobs))
		}
		world.Step()
	}
	b.StopTimer()
	if n := core.Counters()[microarch.SigInstructions] - start; n > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/instr")
	}
}

// BenchmarkSimulatedInstruction reports host ns per simulated instruction
// on a noisy default core: "scratch" retires library ops whose memory
// operands all hit the fuzzer's one scratch line, "workingset-1MiB" draws
// them over a 1 MiB working set, and "website-tick" is BenchmarkRunnerStep,
// a guest tick of a website page load with the class and op draws included.
func BenchmarkSimulatedInstruction(b *testing.B) {
	// The class pools of workload.DefaultLibrary(1): the decoded legal
	// variants of the seed's specification, by class and in spec order.
	legal := isa.Cleanup(isa.SpecAMDEpyc(1), isa.AMDEpycFeatures()).Legal
	pools := map[isa.Class][]microarch.Op{}
	for i := range legal {
		pools[legal[i].Class] = append(pools[legal[i].Class], microarch.Decode(&legal[i]))
	}
	classes := []isa.Class{isa.ClassALU, isa.ClassLoad, isa.ClassStore, isa.ClassBranch, isa.ClassMul, isa.ClassSSE, isa.ClassNop}
	r := rng.New(7)
	ops := make([]microarch.Op, 4096)
	for i := range ops {
		pool := pools[classes[r.Intn(len(classes))]]
		if len(pool) == 0 {
			pool = pools[isa.ClassALU]
		}
		ops[i] = pool[r.Intn(len(pool))]
	}
	for _, bc := range []struct {
		name string
		ctx  *microarch.ExecContext
	}{
		{"scratch", microarch.NewScratchContext(0x1000_0000)},
		{"workingset-1MiB", microarch.NewWorkloadContext(0x10000, 1<<20, rng.New(2))},
	} {
		b.Run(bc.name, func(b *testing.B) {
			core := microarch.NewCore(0, microarch.DefaultCoreConfig(), rng.New(3))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := core.ExecuteOp(ops[i%len(ops)], bc.ctx); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/instr")
		})
	}
	b.Run("website-tick", BenchmarkRunnerStep)
}

// BenchmarkDefaultLibrary measures what an aegisd tenant pays for its
// instruction library at attach: one seed's alias draws replayed over the
// documented ops, which are decoded once per process.
func BenchmarkDefaultLibrary(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		librarySink = workload.DefaultLibrary(uint64(i))
	}
}

var librarySink *workload.Library

// BenchmarkColdSignature measures one fuzzer screening signature: a
// two-instruction load/flush gadget run twice from a cold, noise-free core.
// "new-core" builds the core per signature; "reset-core" resets one reused
// core, which is what the fuzzer's pooled benches do.
func BenchmarkColdSignature(b *testing.B) {
	var seg []microarch.Op
	for _, v := range benchSegment(b)[:2] {
		seg = append(seg, microarch.Decode(&v))
	}
	cfg := microarch.DefaultCoreConfig()
	cfg.InterruptRate = 0
	run := func(b *testing.B, cold func() *microarch.Core) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core := cold()
			ctx := microarch.NewScratchContext(0x1000_0000)
			for rep := 0; rep < 2; rep++ {
				if err := core.ExecuteSequence(seg, ctx); err != nil {
					b.Fatal(err)
				}
			}
			coreSink = core
		}
	}
	b.Run("new-core", func(b *testing.B) {
		run(b, func() *microarch.Core { return microarch.NewCore(0, cfg, nil) })
	})
	b.Run("reset-core", func(b *testing.B) {
		core := microarch.NewCore(0, cfg, nil)
		run(b, func() *microarch.Core { core.Reset(); return core })
	})
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
// driven through World.Step, per mechanism. It also reports host ns per
// simulated instruction, which here are the injected gadget instructions:
// the defense's own cost per instruction, next to an app's in
// BenchmarkSimulatedInstruction's website-tick.
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
			pc, err := vm.PhysicalCore(0)
			if err != nil {
				b.Fatal(err)
			}
			core, err := world.Core(pc)
			if err != nil {
				b.Fatal(err)
			}
			world.Run(8) // attach the kernel module, settle the caches
			b.ReportAllocs()
			b.ResetTimer()
			start := core.Counters()[microarch.SigInstructions]
			for i := 0; i < b.N; i++ {
				world.Step()
			}
			b.StopTimer()
			if n := core.Counters()[microarch.SigInstructions] - start; n > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/instr")
			}
		})
	}
}

// The stats fixtures below are shared with the allocation gates. They live
// here because alloc_gate_test.go is excluded under -race.

// pcaRows builds a deterministic n×d sample matrix with a dominant
// direction, shaped like the profiler's per-event trace population.
func pcaRows(n, d int) [][]float64 {
	r := rng.New(21).Split("pca-bench")
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, d)
		base := r.Gaussian(0, 3)
		for j := range row {
			row[j] = base*float64(j%7) + r.Gaussian(0, 1)
		}
		rows[i] = row
	}
	return rows
}

// binnedPairs builds a deterministic correlated sample pair of the Fig. 9c
// shape (clean vs. noised leakage traces).
func binnedPairs(n int) (xs, ys []float64) {
	r := rng.New(12).Split("binned-bench")
	xs = make([]float64, n)
	ys = make([]float64, n)
	for i := range xs {
		xs[i] = r.Gaussian(0, 1)
		ys[i] = xs[i]*0.7 + r.Gaussian(0, 0.5)
	}
	return xs, ys
}

// miClasses builds k well-separated Gaussian secret classes for the MI
// quadrature kernel.
func miClasses(k int) []stats.ClassModel {
	classes := make([]stats.ClassModel, k)
	for i := range classes {
		classes[i] = stats.ClassModel{
			Secret: string(rune('a' + i)),
			Dist:   stats.Gaussian{Mu: float64(i) * 2.5, Sigma: 1 + 0.2*float64(i)},
		}
	}
	return classes
}

// BenchmarkFitPCA measures one PCA fit over a trace population of the
// profiler's ranking shape (secrets*repeats traces x TraceTicks features)
// through the arena-reusing path the profiler's scoring loop uses.
func BenchmarkFitPCA(b *testing.B) {
	rows := pcaRows(72, 150)
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
	xs, ys := binnedPairs(400)
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
	classes := miClasses(6)
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
