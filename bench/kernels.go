package main

import (
	"fmt"
	"math"
	"time"

	"github.com/repro/aegis/internal/daemon"
	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/microarch"
	"github.com/repro/aegis/internal/obfuscator"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/stats"
	"github.com/repro/aegis/internal/telemetry"
	"github.com/repro/aegis/internal/telemetry/flight"
)

// Standalone kernels price the sub-layers the tick path calls many times:
// a layer's cost is its kernel time × the calls per tenant-tick counted in
// the traced run. Kernels run with telemetry off, like the untraced run.

// sink keeps kernel results live so the compiler cannot drop the calls.
var sink float64

// nsPerCall times n calls of fn in five batches and returns the median
// batch's ns per call.
func nsPerCall(n int, fn func()) float64 {
	was := telemetry.Default().Enabled()
	telemetry.Default().SetEnabled(false)
	defer telemetry.Default().SetEnabled(was)
	per := make([]float64, 0, 5)
	for b := 0; b < 5; b++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(per)
}

// drawNs prices one noise draw of the fleet's mechanism. A d* draw
// includes the Commit that feeds the recursion, as in the obfuscator tick.
func drawNs(mechanism string, seed uint64) (float64, error) {
	mech, err := buildMechanism(mechanism, rng.NewStream(seed, "bench", "draw"))
	if err != nil {
		return 0, err
	}
	var t int64
	if mechanism == daemon.MechanismDStar {
		d := mech.(*obfuscator.DStarMechanism)
		return nsPerCall(1<<16, func() {
			t++
			v := d.Noise(t, 0)
			d.Commit(t, math.Max(0, math.Min(v, clipBound)))
			sink += v
		}), nil
	}
	return nsPerCall(1<<18, func() {
		t++
		sink += mech.Noise(t, 0)
	}), nil
}

// rdpmcNs prices one kernel-module RDPMC read: the reference event on the
// obfuscator's counter slot of a noise-free in-guest PMU.
func rdpmcNs() (float64, error) {
	core := microarch.NewCore(0, microarch.DefaultCoreConfig(), nil)
	pmu := hpc.NewPMU(core, nil)
	slot := hpc.NumCounterRegisters - 1
	if err := pmu.Program(slot, hpc.NewAMDEpyc7252Catalog(1).MustByName(refEventName)); err != nil {
		return 0, err
	}
	var readErr error
	ns := nsPerCall(1<<18, func() {
		v, err := pmu.RDPMC(slot)
		if err != nil {
			readErr = err
		}
		sink += v
	})
	return ns, readErr
}

// flightRecordNs prices one flight-journal write on a private recorder.
func flightRecordNs() float64 {
	h := flight.NewRecorder(flight.DefaultCapacity).Handle(flight.KindObfuscatorTick)
	return nsPerCall(1<<18, func() {
		h.Record(1, flight.CodeTickInjected, flight.CodeMechLaplace, 1, 2, 0)
	})
}

// profilerShape builds a ranking-shaped input: secrets×repeats traces of
// ticks samples, plus the per-secret Gaussian class models MI scores.
func profilerShape(seed uint64, secrets, repeats, ticks int) ([][]float64, []stats.ClassModel) {
	r := rng.NewStream(seed, "bench", "profiler-shape")
	rows := make([][]float64, 0, secrets*repeats)
	classes := make([]stats.ClassModel, 0, secrets)
	for s := 0; s < secrets; s++ {
		for k := 0; k < repeats; k++ {
			row := make([]float64, ticks)
			for t := range row {
				row[t] = float64(s)*3 + r.Gaussian(100, 10)
			}
			rows = append(rows, row)
		}
		classes = append(classes, stats.ClassModel{
			Secret: fmt.Sprintf("s%d", s),
			Dist:   stats.Gaussian{Mu: float64(s) * 3, Sigma: 1 + r.Float64()},
		})
	}
	return rows, classes
}

// statsKernelsUs prices the profiler's per-event scoring kernels at its
// ranking shape: one PCA fit and one mutual-information quadrature.
func statsKernelsUs(seed uint64, secrets, repeats, ticks, quadrature int) (pcaUs, miUs float64, err error) {
	rows, classes := profilerShape(seed, secrets, repeats, ticks)
	var s stats.Scratch
	var kernelErr error
	pcaUs = nsPerCall(32, func() {
		p, err := s.FitPCA(rows, 1)
		if err != nil {
			kernelErr = err
			return
		}
		sink += p.Variances[0]
	}) / 1e3
	miUs = nsPerCall(32, func() {
		v, err := s.MutualInformation(classes, quadrature)
		if err != nil {
			kernelErr = err
		}
		sink += v
	}) / 1e3
	return pcaUs, miUs, kernelErr
}

// kernels sets the standalone kernel prices of the tick path.
func kernels(rep *report, mechanism string, seed uint64) {
	draw, err := drawNs(mechanism, seed)
	rep.check(err == nil, "draw kernel: %v", err)
	rep.set("obfuscator.draw_ns", draw)
	read, err := rdpmcNs()
	rep.check(err == nil, "rdpmc kernel: %v", err)
	rep.set("hpc.rdpmc_ns", read)
	rep.set("flight.record_ns", flightRecordNs())
}
