// Package benchkit defines the hot-path kernel micro-benchmarks shared by
// the repo's `go test -bench` suite and the aegis-bench harness. Each
// Kernel is a standard testing.B benchmark body over a deterministic
// fixture; the harness runs them through testing.Benchmark to record
// per-kernel ns/op and allocs/op alongside the experiment wall-clock in
// the aegis-bench/v2 report, so a regression in one kernel is attributable
// directly instead of being smeared across an end-to-end experiment time.
//
// The fixture builders are exported and deterministic (fixed rng seeds),
// so the in-repo benchmarks and the harness measure exactly the same work.
package benchkit

import (
	"testing"

	"github.com/repro/aegis/internal/obfuscator"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/stats"
	"github.com/repro/aegis/internal/telemetry"
)

// PCARows builds a deterministic n×d sample matrix with a dominant
// direction, shaped like the profiler's per-event trace population.
func PCARows(n, d int) [][]float64 {
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

// BinnedPairs builds a deterministic correlated sample pair of the Fig. 9c
// shape (clean vs. noised leakage traces).
func BinnedPairs(n int) (xs, ys []float64) {
	r := rng.New(12).Split("binned-bench")
	xs = make([]float64, n)
	ys = make([]float64, n)
	for i := range xs {
		xs[i] = r.Gaussian(0, 1)
		ys[i] = xs[i]*0.7 + r.Gaussian(0, 0.5)
	}
	return xs, ys
}

// MIClasses builds k well-separated Gaussian secret classes for the MI
// quadrature kernel.
func MIClasses(k int) []stats.ClassModel {
	classes := make([]stats.ClassModel, k)
	for i := range classes {
		classes[i] = stats.ClassModel{
			Secret: string(rune('a' + i)),
			Dist:   stats.Gaussian{Mu: float64(i) * 2.5, Sigma: 1 + 0.2*float64(i)},
		}
	}
	return classes
}

// Kernel is one named hot-path micro-benchmark.
type Kernel struct {
	Name  string
	Bench func(b *testing.B)
}

// Kernels returns the per-kernel benchmark suite at the canonical fixture
// shapes (the profiler's 72×150 ranking block, the Fig. 9c 400×16
// histogram, the 6-class/600-step quadrature, the two DP draw paths).
func Kernels() []Kernel {
	return []Kernel{
		{Name: "fitpca", Bench: func(b *testing.B) {
			rows := PCARows(72, 150)
			var s stats.Scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.FitPCA(rows, 1); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "binnedmi", Bench: func(b *testing.B) {
			xs, ys := BinnedPairs(400)
			var s stats.Scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.BinnedMI(xs, ys, 16); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "mutualinfo", Bench: func(b *testing.B) {
			classes := MIClasses(6)
			var s stats.Scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.MutualInformation(classes, 600); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "draw_laplace", Bench: func(b *testing.B) {
			mech, err := obfuscator.NewLaplaceMechanism(1, 1500, rng.New(6).Split("lap"))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mech.Noise(int64(i), 0)
			}
		}},
		{Name: "draw_dstar", Bench: func(b *testing.B) {
			mech, err := obfuscator.NewDStarMechanism(1, 1500, rng.New(7).Split("dstar"))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Cycle ticks over a bounded window so the d* memo reaches
				// its plateau and stays there (steady-state draw cost, not
				// map growth).
				t := int64(i%2048) + 1
				mech.Commit(t, mech.Noise(t, 0))
			}
		}},
	}
}

// Result is one kernel's measured cost.
type Result struct {
	Name        string
	NsPerOp     float64
	AllocsPerOp int64
	BytesPerOp  int64
}

// Measure runs one kernel under testing.Benchmark (default ~1s of
// iterations) with telemetry disabled, matching the experiment harness's
// -telemetry=false configuration.
func Measure(k Kernel) Result {
	reg := telemetry.Default()
	was := reg.Enabled()
	reg.SetEnabled(false)
	defer reg.SetEnabled(was)
	r := testing.Benchmark(k.Bench)
	res := Result{Name: k.Name, AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp()}
	if r.N > 0 {
		res.NsPerOp = float64(r.T.Nanoseconds()) / float64(r.N)
	}
	return res
}

// MeasureAll measures every kernel in suite order.
func MeasureAll() []Result {
	ks := Kernels()
	out := make([]Result, 0, len(ks))
	for _, k := range ks {
		out = append(out, Measure(k))
	}
	return out
}
