package stats

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"github.com/repro/aegis/internal/rng"
)

// repinRows builds a deterministic n×d matrix with a dominant direction.
func repinRows(t testing.TB, n, d int) [][]float64 {
	t.Helper()
	r := rng.New(33).Split("repin")
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, d)
		base := r.Gaussian(0, 3)
		for j := range row {
			row[j] = base*float64(j%5) + r.Gaussian(0, 1)
		}
		rows[i] = row
	}
	return rows
}

// covApplyRowwise is the pre-blocking covariance step (covApplyInto before
// the register-blocked kernel replaced it), kept verbatim as the
// bit-identity reference.
func covApplyRowwise(out []float64, centered [][]float64, v []float64) {
	for j := range out {
		out[j] = 0
	}
	for _, x := range centered {
		var dot float64
		for j := range v {
			dot += x[j] * v[j]
		}
		for j := range x {
			out[j] += dot * x[j]
		}
	}
	n := float64(len(centered))
	for j := range out {
		out[j] /= n
	}
}

// TestBlockedCovApplyBitIdentical pins the register-blocked covariance
// kernel against the row-at-a-time form it replaced: because Go evaluates
// `out[j] + d0*r0[j] + d1*r1[j] + d2*r2[j] + d3*r3[j]` left to right, the
// blocked update performs the exact floating-point additions of four
// sequential row updates, so the kernel is bit-identical — including the
// tail path for n % covBlock != 0 — and the FitPCA goldens from the
// original scratch-kernel PR did NOT need re-pinning.
func TestBlockedCovApplyBitIdentical(t *testing.T) {
	shapes := []struct{ n, d int }{
		{1, 3}, {2, 3}, {3, 7}, {4, 7}, {5, 7}, {6, 1}, {7, 12},
		{8, 12}, {9, 12}, {30, 40}, {72, 150},
	}
	for _, sh := range shapes {
		rows := repinRows(t, sh.n, sh.d)
		slab := make([]float64, sh.n*sh.d)
		for i, row := range rows {
			copy(slab[i*sh.d:(i+1)*sh.d], row)
		}
		v := make([]float64, sh.d)
		for j := range v {
			v[j] = 1 / math.Sqrt(float64(sh.d))
			if j%2 == 1 {
				v[j] = -v[j]
			}
		}
		want := make([]float64, sh.d)
		got := make([]float64, sh.d)
		covApplyRowwise(want, rows, v)
		covApplySlab(got, slab, sh.n, sh.d, v)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%dx%d: covApplySlab[%d] = %v (bits %#x), rowwise %v (bits %#x)",
					sh.n, sh.d, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
			}
		}
	}
}

// oldBinnedMI is the pre-blocked-kernels estimator, kept verbatim as the
// re-pin reference: per-sample divide binning (binIndex) and the per-cell
// probability-quotient sum.
func oldBinnedMI(xs, ys []float64, bins int) float64 {
	xlo, xhi := MinMax(xs)
	ylo, yhi := MinMax(ys)
	if xhi == xlo {
		xhi = xlo + 1
	}
	if yhi == ylo {
		yhi = ylo + 1
	}
	joint := make([][]float64, bins)
	for i := range joint {
		joint[i] = make([]float64, bins)
	}
	px := make([]float64, bins)
	py := make([]float64, bins)
	n := float64(len(xs))
	for i := range xs {
		bx := binIndex(xs[i], xlo, xhi, bins)
		by := binIndex(ys[i], ylo, yhi, bins)
		joint[bx][by]++
		px[bx]++
		py[by]++
	}
	var mi float64
	for i := 0; i < bins; i++ {
		for j := 0; j < bins; j++ {
			if joint[i][j] == 0 {
				continue
			}
			pij := joint[i][j] / n
			mi += pij * math.Log2(pij*n*n/(px[i]*py[j]))
		}
	}
	if mi < 0 {
		mi = 0
	}
	return mi
}

// PDF evaluates the probability density at x.
func (g Gaussian) PDF(x float64) float64 {
	z := (x - g.Mu) / g.Sigma
	return math.Exp(-0.5*z*z) / (g.Sigma * math.Sqrt(2*math.Pi))
}

// oldMutualInformation is the pre-blocked-kernels quadrature loop body,
// kept verbatim as the re-pin reference: per-(step, class) PDF calls and
// posterior normalisation by division.
func oldMutualInformation(classes []ClassModel, steps int) float64 {
	priors := make([]float64, len(classes))
	for i := range priors {
		priors[i] = 1 / float64(len(classes))
	}
	hy := Entropy(priors)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, c := range classes {
		l := c.Dist.Mu - 6*c.Dist.Sigma
		h := c.Dist.Mu + 6*c.Dist.Sigma
		if l < lo {
			lo = l
		}
		if h > hi {
			hi = h
		}
	}
	dx := (hi - lo) / float64(steps)
	post := make([]float64, len(classes))
	var condEntropy float64
	for step := 0; step < steps; step++ {
		x := lo + (float64(step)+0.5)*dx
		var px float64
		for i, c := range classes {
			post[i] = c.Dist.PDF(x) * priors[i]
			px += post[i]
		}
		if px <= 0 {
			continue
		}
		for i := range post {
			post[i] /= px
		}
		condEntropy += px * Entropy(post) * dx
	}
	mi := hy - condEntropy
	if mi < 0 {
		mi = 0
	}
	if mi > hy {
		mi = hy
	}
	return mi
}

// TestKernelGoldenRepins is the per-kernel equivalence table of the blocked
// cache-friendly kernels PR. For each kernel it states whether the fused
// form preserves the exact floating-point operation order of the form it
// replaced (goldens keep their old bits) or changes rounding (goldens were
// re-pinned), and asserts the corresponding contract against the old
// implementation kept verbatim above:
//
//	kernel             golden    why
//	-----------------  --------  ------------------------------------------
//	FitPCA             KEPT      blocked covApplySlab replays the row-
//	                             sequential add order exactly (left-to-
//	                             right evaluation); see
//	                             TestBlockedCovApplyBitIdentical
//	BinnedMI           RE-PINNED reciprocal-width binning rounds bin
//	                             indices differently near boundaries, and
//	                             the count-entropy accumulation reorders
//	                             the log2 sum
//	MutualInformation  RE-PINNED hoisted class constants fold the prior
//	                             into the PDF normalisation and replace
//	                             the per-class divide with a 1/px multiply
//
// The re-pinned kernels must still agree with the old estimators to well
// inside quadrature/estimator error — the re-pin is a rounding change, not
// a value change.
func TestKernelGoldenRepins(t *testing.T) {
	// FitPCA: bit-identical between a fresh arena and one already grown
	// to a larger shape.
	rows := repinRows(t, 30, 40)
	var s1, s2 Scratch
	fresh, err := s1.FitPCA(rows, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.FitPCA(repinRows(t, 72, 150), 3); err != nil {
		t.Fatal(err)
	}
	reused, err := s2.FitPCA(rows, 2)
	if err != nil {
		t.Fatal(err)
	}
	for j := range fresh.Mean {
		if math.Float64bits(fresh.Mean[j]) != math.Float64bits(reused.Mean[j]) {
			t.Fatalf("FitPCA mean[%d] differs between fresh and reused arenas", j)
		}
	}
	for c := range fresh.Components {
		if math.Float64bits(fresh.Variances[c]) != math.Float64bits(reused.Variances[c]) {
			t.Fatalf("FitPCA variance[%d] differs between fresh and reused arenas", c)
		}
		for j := range fresh.Components[c] {
			if math.Float64bits(fresh.Components[c][j]) != math.Float64bits(reused.Components[c][j]) {
				t.Fatalf("FitPCA component[%d][%d] differs between fresh and reused arenas", c, j)
			}
		}
	}

	// BinnedMI: re-pinned; old and new estimators agree to 1e-9 bits.
	r := rng.New(12).Split("binned-bench")
	xs := make([]float64, 400)
	ys := make([]float64, 400)
	for i := range xs {
		xs[i] = r.Gaussian(0, 1)
		ys[i] = xs[i]*0.7 + r.Gaussian(0, 0.5)
	}
	newMI, err := BinnedMI(xs, ys, 16)
	if err != nil {
		t.Fatal(err)
	}
	oldMI := oldBinnedMI(xs, ys, 16)
	if math.Abs(newMI-oldMI) > 1e-9 {
		t.Fatalf("BinnedMI re-pin drifted beyond rounding: new %v vs old %v", newMI, oldMI)
	}

	// MutualInformation: re-pinned; old and new quadratures agree to 1e-9.
	classes := make([]ClassModel, 6)
	for i := range classes {
		classes[i] = ClassModel{
			Secret: string(rune('a' + i)),
			Dist:   Gaussian{Mu: float64(i) * 2.5, Sigma: 1 + 0.2*float64(i)},
		}
	}
	newQ, err := new(Scratch).MutualInformation(classes, 600)
	if err != nil {
		t.Fatal(err)
	}
	oldQ := oldMutualInformation(classes, 600)
	if math.Abs(newQ-oldQ) > 1e-9 {
		t.Fatalf("MutualInformation re-pin drifted beyond rounding: new %v vs old %v", newQ, oldQ)
	}
}

// TestLog2CountTableBitIdentical pins the small-integer log2 table against
// on-demand math.Log2 calls: table hits must be bit-identical, and counts
// past the table fall back to the same call.
func TestLog2CountTableBitIdentical(t *testing.T) {
	for c := 1; c < 1200; c++ {
		got := log2Count(float64(c))
		want := math.Log2(float64(c))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("log2Count(%d) = %v, math.Log2 = %v", c, got, want)
		}
	}
	// Non-integer counts (never produced by the histograms, but the
	// helper must stay total) take the fallback.
	if got, want := log2Count(2.5), math.Log2(2.5); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("log2Count(2.5) = %v, want %v", got, want)
	}
}

// TestBlockedKernelsDeterministicAcrossParallelism runs the blocked kernels
// from concurrent workers (each with its own Scratch, per the ownership
// rules) at parallelism 1, 4 and GOMAXPROCS, and requires every worker's
// results to be bit-identical to the serial ones: the blocked paths carry
// no shared mutable state, so concurrency must not change a single bit.
func TestBlockedKernelsDeterministicAcrossParallelism(t *testing.T) {
	rows := repinRows(t, 72, 150)
	r := rng.New(12).Split("binned-bench")
	xs := make([]float64, 400)
	ys := make([]float64, 400)
	for i := range xs {
		xs[i] = r.Gaussian(0, 1)
		ys[i] = xs[i]*0.7 + r.Gaussian(0, 0.5)
	}

	var serial Scratch
	wantPCA, err := serial.FitPCA(rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantVar := wantPCA.Variances[0]
	wantComp := append([]float64(nil), wantPCA.Components[0]...)
	wantMI, err := serial.BinnedMI(xs, ys, 16)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var s Scratch
				for iter := 0; iter < 3; iter++ {
					p, err := s.FitPCA(rows, 1)
					if err != nil {
						errs[w] = err
						return
					}
					if math.Float64bits(p.Variances[0]) != math.Float64bits(wantVar) {
						t.Errorf("worker %d/%d: variance bits diverged", w, workers)
						return
					}
					for j := range wantComp {
						if math.Float64bits(p.Components[0][j]) != math.Float64bits(wantComp[j]) {
							t.Errorf("worker %d/%d: component[%d] bits diverged", w, workers, j)
							return
						}
					}
					mi, err := s.BinnedMI(xs, ys, 16)
					if err != nil {
						errs[w] = err
						return
					}
					if math.Float64bits(mi) != math.Float64bits(wantMI) {
						t.Errorf("worker %d/%d: BinnedMI bits diverged", w, workers)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}
