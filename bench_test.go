package aegis

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index) plus micro-benchmarks
// of the hot substrate paths. The table/figure benchmarks run the
// experiment harnesses at test scale and report the headline quantity as
// a custom metric; `go run ./cmd/aegis-bench` prints the full rows/series
// at evaluation scale.

import (
	"testing"

	"github.com/repro/aegis/internal/experiment"
	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/microarch"
	"github.com/repro/aegis/internal/ml"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/sev"
	"github.com/repro/aegis/internal/workload"
)

func benchScale(i int) experiment.Scale {
	return experiment.TestScale(uint64(1000 + i))
}

// pointWhere returns the first experiment point satisfying match.
func pointWhere[P any](points []P, match func(P) bool) (P, bool) {
	for _, p := range points {
		if match(p) {
			return p, true
		}
	}
	var zero P
	return zero, false
}

// --- Tables -----------------------------------------------------------------

func BenchmarkTable1EventStatistics(b *testing.B) {
	var events int
	for i := 0; i < b.N; i++ {
		res := experiment.Table1()
		events = res.Rows[0].Events
	}
	b.ReportMetric(float64(events), "intel-events")
}

func BenchmarkTable2EventDistribution(b *testing.B) {
	var remaining int
	for i := 0; i < b.N; i++ {
		res, err := experiment.Table2(benchScale(i))
		if err != nil {
			b.Fatal(err)
		}
		remaining = res.Rows[1].RemainingTotal // AMD row
	}
	b.ReportMetric(float64(remaining), "amd-remaining-events")
}

func BenchmarkTable3FuzzingTime(b *testing.B) {
	var throughput float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.Table3(benchScale(i))
		if err != nil {
			b.Fatal(err)
		}
		throughput = res.Rows[1].Throughput
	}
	b.ReportMetric(throughput, "gadgets/sec")
}

// --- Figures ----------------------------------------------------------------

func BenchmarkFigure1AttackTraining(b *testing.B) {
	var wfa float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.Figure1(benchScale(i))
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range res.Attacks {
			if a.Attack == experiment.WFA {
				wfa = a.VictimAcc
			}
		}
	}
	b.ReportMetric(wfa*100, "wfa-victim-acc-%")
}

func BenchmarkFigure3EventDistribution(b *testing.B) {
	var qq float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.Figure3(benchScale(i))
		if err != nil {
			b.Fatal(err)
		}
		qq = res.QQCorr
	}
	b.ReportMetric(qq, "qq-correlation")
}

func BenchmarkFigure8MutualInformation(b *testing.B) {
	var topMI float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.Figure8(benchScale(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Series) > 0 && len(res.Series[0].MI) > 0 {
			topMI = res.Series[0].MI[0]
		}
	}
	b.ReportMetric(topMI, "top-MI-bits")
}

func BenchmarkFigure9aDefenseEffectiveness(b *testing.B) {
	var defended float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.Figure9a(benchScale(i), []float64{0.125, 8})
		if err != nil {
			b.Fatal(err)
		}
		if p, ok := pointWhere(res.Points, func(p experiment.DefensePoint) bool {
			return p.Mechanism == experiment.MechLaplace && p.Epsilon == 0.125 && p.Attack == experiment.WFA
		}); ok {
			defended = p.Accuracy
		}
	}
	b.ReportMetric(defended*100, "wfa-defended-acc-%")
}

func BenchmarkFigure9bAdaptiveAttacker(b *testing.B) {
	sc := benchScale(0)
	sc.Sites = 3
	sc.KeyClasses = 3
	var acc float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.Figure9b(sc, []float64{1.0 / 256, 8})
		if err != nil {
			b.Fatal(err)
		}
		if p, ok := pointWhere(res.Points, func(p experiment.DefensePoint) bool {
			return p.Mechanism == experiment.MechDStar && p.Epsilon == 1.0/256 && p.Attack == experiment.WFA
		}); ok {
			acc = p.Accuracy
		}
	}
	b.ReportMetric(acc*100, "adaptive-wfa-acc-%")
}

func BenchmarkFigure9cResidualMutualInformation(b *testing.B) {
	var mi float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.Figure9c(benchScale(i), []float64{0.125, 8})
		if err != nil {
			b.Fatal(err)
		}
		if p, ok := pointWhere(res.Points, func(p experiment.Figure9cPoint) bool {
			return p.Mechanism == experiment.MechLaplace && p.Epsilon == 0.125
		}); ok {
			mi = p.MI
		}
	}
	b.ReportMetric(mi, "residual-MI-bits")
}

func BenchmarkFigure10Overhead(b *testing.B) {
	var latency float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.Figure10(benchScale(i), []float64{1})
		if err != nil {
			b.Fatal(err)
		}
		if p, ok := pointWhere(res.Points, func(p experiment.OverheadPoint) bool {
			return p.Mechanism == experiment.MechLaplace && p.Epsilon == 1 && p.App == "website"
		}); ok {
			latency = p.LatencyOverhead
		}
	}
	b.ReportMetric(latency*100, "latency-overhead-%")
}

func BenchmarkFigure11RandomNoiseBaseline(b *testing.B) {
	var randomAcc float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.Figure11(benchScale(i))
		if err != nil {
			b.Fatal(err)
		}
		randomAcc = res.Points[0].Accuracy
	}
	b.ReportMetric(randomAcc*100, "random-0.1p-acc-%")
}

func BenchmarkConstantOutputBaseline(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.ConstantOutputComparison(benchScale(i))
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.Ratio()
	}
	b.ReportMetric(ratio, "constant/laplace-noise")
}

// --- Ablations ----------------------------------------------------------------

func BenchmarkAblationSetCover(b *testing.B) {
	var reduction float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.AblationSetCover(benchScale(i))
		if err != nil {
			b.Fatal(err)
		}
		reduction = res.Reduction()
	}
	b.ReportMetric(reduction, "per-event/cover")
}

func BenchmarkAblationPCA(b *testing.B) {
	var overlap float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.AblationPCA(benchScale(i))
		if err != nil {
			b.Fatal(err)
		}
		overlap = res.TopOverlap
	}
	b.ReportMetric(overlap, "top4-overlap")
}

func BenchmarkAblationConfirmation(b *testing.B) {
	var fp float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.AblationConfirmation(benchScale(i))
		if err != nil {
			b.Fatal(err)
		}
		fp = res.FalsePositiveRate()
	}
	b.ReportMetric(fp*100, "false-positive-%")
}

// --- Substrate micro-benchmarks -----------------------------------------------

func BenchmarkCacheAccess(b *testing.B) {
	c := microarch.NewCache(microarch.CacheConfig{Sets: 64, Ways: 8, LineSize: 64})
	r := rng.New(1)
	addrs := make([]uint64, 1024)
	for i := range addrs {
		addrs[i] = r.Uint64() % (1 << 20)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i%len(addrs)])
	}
}

// BenchmarkTLBAccess translates addresses over a working set of twice the
// default TLB's reach, so accesses both hit and miss.
func BenchmarkTLBAccess(b *testing.B) {
	tlb := microarch.NewTLB(64, 4096)
	r := rng.New(1)
	addrs := make([]uint64, 1024)
	for i := range addrs {
		addrs[i] = r.Uint64() % (128 << 12)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tlb.Access(addrs[i%len(addrs)])
	}
}

// BenchmarkNewCore builds a default core, the set-up cost a world pays per
// pinned core.
func BenchmarkNewCore(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		coreSink = microarch.NewCore(0, microarch.DefaultCoreConfig(), nil)
	}
}

// coreSink keeps constructed cores live so construction is not optimised away.
var coreSink *microarch.Core

func BenchmarkCoreExecuteLoad(b *testing.B) {
	core := microarch.NewCore(0, microarch.DefaultCoreConfig(), nil)
	ctx := microarch.NewWorkloadContext(0x10000, 1<<18, rng.New(2))
	legal := isa.Cleanup(isa.SpecAMDEpyc(1), isa.AMDEpycFeatures()).Legal
	var load isa.Variant
	for _, v := range legal {
		if v.Class == isa.ClassLoad {
			load = v
			break
		}
	}
	op := microarch.Decode(&load)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.ExecuteOp(op, ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorldTick(b *testing.B) {
	world := sev.NewWorld(sev.DefaultConfig(4))
	vm, err := world.LaunchVM(sev.VMConfig{VCPUs: 1, SEV: true})
	if err != nil {
		b.Fatal(err)
	}
	runner := workload.NewRunner("bench", workload.DefaultLibrary(1), rng.New(5).Split("r"))
	for i := 0; i < 1000; i++ {
		runner.Enqueue(workload.WebsiteJob("google.com", rng.New(uint64(i)).Split("l")))
	}
	if err := vm.AddProcess(0, runner); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		world.Step()
	}
}

func BenchmarkMLPTrainEpoch(b *testing.B) {
	r := rng.New(8)
	xs := make([][]float64, 64)
	ys := make([]int, 64)
	for i := range xs {
		x := make([]float64, 128)
		for j := range x {
			x[j] = r.Gaussian(0, 1)
		}
		xs[i] = x
		ys[i] = i % 4
	}
	m, err := ml.NewMLP(ml.DefaultMLPConfig(128, 4))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Train(xs, ys, 1, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGRUCTCTrainStep(b *testing.B) {
	r := rng.New(9)
	const T, dim = 60, 4
	xs := make([][]float64, T)
	for t := range xs {
		row := make([]float64, dim)
		for j := range row {
			row[j] = r.Gaussian(0, 1)
		}
		xs[t] = row
	}
	label := []int{0, 2, 1, 3, 0}
	m, err := ml.NewBiGRUCTC(ml.DefaultGRUConfig(dim, 7))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.TrainStep(xs, label); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameworkNew builds the default framework: the AMD EPYC 7252
// event catalog and the cleaned-up AMD ISA specification, the set-up
// every campaign and every aegisd start pays before any simulation.
func BenchmarkFrameworkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fw, err := New(Config{})
		if err != nil {
			b.Fatal(err)
		}
		fw.Close()
	}
}

func BenchmarkISACleanup(b *testing.B) {
	spec := isa.SpecAMDEpyc(1)
	feats := isa.AMDEpycFeatures()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		isa.Cleanup(spec, feats)
	}
}
