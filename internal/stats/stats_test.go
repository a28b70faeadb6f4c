package stats

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/repro/aegis/internal/rng"
)

func TestFitGaussian(t *testing.T) {
	r := rng.New(1)
	samples := make([]float64, 50000)
	for i := range samples {
		samples[i] = r.Gaussian(10, 3)
	}
	g, err := FitGaussian(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Mu-10) > 0.1 {
		t.Errorf("mu = %v, want ~10", g.Mu)
	}
	if math.Abs(g.Sigma-3) > 0.1 {
		t.Errorf("sigma = %v, want ~3", g.Sigma)
	}
}

func TestFitGaussianInsufficient(t *testing.T) {
	if _, err := FitGaussian([]float64{1}); err != ErrInsufficientData {
		t.Fatalf("err = %v, want ErrInsufficientData", err)
	}
}

func TestGaussianPDFIntegratesToOne(t *testing.T) {
	g := Gaussian{Mu: 2, Sigma: 1.5}
	var integral float64
	const steps = 4000
	lo, hi := g.Mu-8*g.Sigma, g.Mu+8*g.Sigma
	dx := (hi - lo) / steps
	for i := 0; i < steps; i++ {
		integral += g.PDF(lo+(float64(i)+0.5)*dx) * dx
	}
	if math.Abs(integral-1) > 1e-6 {
		t.Errorf("PDF integral = %v, want 1", integral)
	}
}

func TestGaussianCDFQuantileInverse(t *testing.T) {
	g := Gaussian{Mu: -3, Sigma: 2}
	for _, p := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		x := g.Quantile(p)
		back := g.CDF(x)
		if math.Abs(back-p) > 1e-6 {
			t.Errorf("CDF(Quantile(%v)) = %v", p, back)
		}
	}
}

func TestEntropyUniform(t *testing.T) {
	p := []float64{0.25, 0.25, 0.25, 0.25}
	if h := Entropy(p); math.Abs(h-2) > 1e-12 {
		t.Errorf("entropy of uniform-4 = %v, want 2", h)
	}
}

func TestEntropyDegenerateIsZero(t *testing.T) {
	if h := Entropy([]float64{1, 0, 0}); h != 0 {
		t.Errorf("entropy of point mass = %v, want 0", h)
	}
}

func TestMutualInformationSeparatedClasses(t *testing.T) {
	// Well-separated classes: MI should approach H(Y) = log2(4) = 2 bits.
	classes := []ClassModel{
		{Secret: "a", Dist: Gaussian{Mu: 0, Sigma: 1}},
		{Secret: "b", Dist: Gaussian{Mu: 100, Sigma: 1}},
		{Secret: "c", Dist: Gaussian{Mu: 200, Sigma: 1}},
		{Secret: "d", Dist: Gaussian{Mu: 300, Sigma: 1}},
	}
	mi, err := new(Scratch).MutualInformation(classes, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if mi < 1.95 || mi > 2.0001 {
		t.Errorf("MI = %v, want ~2 bits", mi)
	}
}

func TestMutualInformationIdenticalClasses(t *testing.T) {
	classes := []ClassModel{
		{Secret: "a", Dist: Gaussian{Mu: 5, Sigma: 2}},
		{Secret: "b", Dist: Gaussian{Mu: 5, Sigma: 2}},
	}
	mi, err := new(Scratch).MutualInformation(classes, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if mi > 0.01 {
		t.Errorf("MI of identical classes = %v, want ~0", mi)
	}
}

func TestMutualInformationMonotoneInSeparation(t *testing.T) {
	prev := -1.0
	for _, sep := range []float64{0, 0.5, 1, 2, 4, 8} {
		classes := []ClassModel{
			{Secret: "a", Dist: Gaussian{Mu: 0, Sigma: 1}},
			{Secret: "b", Dist: Gaussian{Mu: sep, Sigma: 1}},
		}
		mi, err := new(Scratch).MutualInformation(classes, 2000)
		if err != nil {
			t.Fatal(err)
		}
		if mi < prev-1e-6 {
			t.Errorf("MI not monotone: sep=%v mi=%v prev=%v", sep, mi, prev)
		}
		prev = mi
	}
}

func TestMutualInformationBounded(t *testing.T) {
	if err := quick.Check(func(m1, m2 uint8, s1, s2 uint8) bool {
		classes := []ClassModel{
			{Secret: "a", Dist: Gaussian{Mu: float64(m1), Sigma: float64(s1%10) + 0.5}},
			{Secret: "b", Dist: Gaussian{Mu: float64(m2), Sigma: float64(s2%10) + 0.5}},
		}
		mi, err := new(Scratch).MutualInformation(classes, 600)
		return err == nil && mi >= 0 && mi <= 1.0001
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBinnedMIPerfectCorrelation(t *testing.T) {
	r := rng.New(2)
	xs := make([]float64, 20000)
	ys := make([]float64, 20000)
	for i := range xs {
		xs[i] = r.Float64()
		ys[i] = xs[i]
	}
	mi, err := BinnedMI(xs, ys, 16)
	if err != nil {
		t.Fatal(err)
	}
	if mi < 3.5 { // log2(16) = 4 bits max; identical values ≈ 4
		t.Errorf("MI of identical samples = %v, want near 4", mi)
	}
}

func TestBinnedMIIndependent(t *testing.T) {
	r := rng.New(3)
	xs := make([]float64, 50000)
	ys := make([]float64, 50000)
	for i := range xs {
		xs[i] = r.Float64()
		ys[i] = r.Float64()
	}
	mi, err := BinnedMI(xs, ys, 8)
	if err != nil {
		t.Fatal(err)
	}
	if mi > 0.01 {
		t.Errorf("MI of independent samples = %v, want ~0", mi)
	}
}

func TestBinnedMINoiseDecreases(t *testing.T) {
	r := rng.New(4)
	base := make([]float64, 20000)
	for i := range base {
		base[i] = r.Gaussian(0, 1)
	}
	prev := math.Inf(1)
	for _, noise := range []float64{0.1, 1, 10} {
		ys := make([]float64, len(base))
		for i := range ys {
			ys[i] = base[i] + r.Gaussian(0, noise)
		}
		mi, err := BinnedMI(base, ys, 12)
		if err != nil {
			t.Fatal(err)
		}
		if mi > prev {
			t.Errorf("MI increased with noise %v: %v > %v", noise, mi, prev)
		}
		prev = mi
	}
}

func TestMedian(t *testing.T) {
	if m := SortedMedian([]float64{1, 3, 5}); m != 3 {
		t.Errorf("median = %v, want 3", m)
	}
	if m := SortedMedian([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if m := SortedMedian(nil); m != 0 {
		t.Errorf("median of empty = %v, want 0", m)
	}
}

func TestNormalize(t *testing.T) {
	xs := []float64{2, 4, 6, 8}
	mean, std := Normalize(xs)
	if mean != 5 {
		t.Errorf("mean = %v, want 5", mean)
	}
	if std <= 0 {
		t.Errorf("std = %v, want > 0", std)
	}
	if m := Mean(xs); math.Abs(m) > 1e-12 {
		t.Errorf("normalized mean = %v, want 0", m)
	}
}

func TestSpearman(t *testing.T) {
	// Monotone but non-linear relation: Spearman = 1.
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 8, 27, 64, 125}
	if s := Spearman(xs, ys); math.Abs(s-1) > 1e-12 {
		t.Errorf("spearman = %v, want 1", s)
	}
	// Reversed: -1.
	rev := []float64{5, 4, 3, 2, 1}
	if s := Spearman(xs, rev); math.Abs(s+1) > 1e-12 {
		t.Errorf("spearman reversed = %v, want -1", s)
	}
	// Ties handled with average ranks.
	tied := []float64{1, 1, 2, 2, 3}
	if s := Spearman(tied, tied); math.Abs(s-1) > 1e-12 {
		t.Errorf("spearman of identical tied = %v, want 1", s)
	}
	if Spearman(xs, xs[:2]) != 0 {
		t.Error("length mismatch not 0")
	}
}
