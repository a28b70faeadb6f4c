package stats

import (
	"math"
	"testing"

	"github.com/repro/aegis/internal/rng"
)

// synthRows builds samples whose variance is dominated by one direction.
func synthRows(r *rng.Source, n, d int, dir []float64, scale float64) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, d)
		t := r.Gaussian(0, scale)
		for j := range row {
			row[j] = t*dir[j] + r.Gaussian(0, 0.1)
		}
		rows[i] = row
	}
	return rows
}

func unit(d int, f func(int) float64) []float64 {
	v := make([]float64, d)
	var norm float64
	for j := range v {
		v[j] = f(j)
		norm += v[j] * v[j]
	}
	norm = math.Sqrt(norm)
	for j := range v {
		v[j] /= norm
	}
	return v
}

func TestFitPCARecoversDominantDirection(t *testing.T) {
	r := rng.New(10)
	d := 20
	dir := unit(d, func(j int) float64 { return math.Sin(float64(j)) + 2 })
	rows := synthRows(r, 500, d, dir, 5)

	p, err := new(Scratch).FitPCA(rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	var dot float64
	for j := range dir {
		dot += dir[j] * p.Components[0][j]
	}
	if math.Abs(dot) < 0.98 {
		t.Errorf("leading component alignment |dot| = %v, want > 0.98", math.Abs(dot))
	}
}

func TestPCAComponentsOrthonormal(t *testing.T) {
	r := rng.New(11)
	rows := make([][]float64, 300)
	for i := range rows {
		row := make([]float64, 8)
		for j := range row {
			row[j] = r.Gaussian(float64(j), float64(j%3)+1)
		}
		rows[i] = row
	}
	p, err := new(Scratch).FitPCA(rows, 3)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			var dot float64
			for j := range p.Components[a] {
				dot += p.Components[a][j] * p.Components[b][j]
			}
			want := 0.0
			if a == b {
				want = 1.0
			}
			if math.Abs(dot-want) > 1e-6 {
				t.Errorf("components %d,%d dot = %v, want %v", a, b, dot, want)
			}
		}
	}
}

func TestPCAVariancesDecreasing(t *testing.T) {
	r := rng.New(12)
	rows := make([][]float64, 400)
	for i := range rows {
		row := make([]float64, 6)
		row[0] = r.Gaussian(0, 10)
		row[1] = r.Gaussian(0, 5)
		row[2] = r.Gaussian(0, 2)
		for j := 3; j < 6; j++ {
			row[j] = r.Gaussian(0, 0.5)
		}
		rows[i] = row
	}
	p, err := new(Scratch).FitPCA(rows, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(p.Variances); i++ {
		if p.Variances[i] > p.Variances[i-1]+1e-9 {
			t.Errorf("variances not sorted: %v", p.Variances)
		}
	}
	if p.Variances[0] < 80 || p.Variances[0] > 120 {
		t.Errorf("leading eigenvalue = %v, want ~100", p.Variances[0])
	}
}

func TestPCAErrors(t *testing.T) {
	if _, err := new(Scratch).FitPCA(nil, 1); err == nil {
		t.Error("FitPCA(nil) did not error")
	}
	rows := [][]float64{{1, 2}, {3, 4}}
	if _, err := new(Scratch).FitPCA(rows, 0); err == nil {
		t.Error("FitPCA with k=0 did not error")
	}
	if _, err := new(Scratch).FitPCA(rows, 3); err == nil {
		t.Error("FitPCA with k>d did not error")
	}
	if _, err := new(Scratch).FitPCA([][]float64{{1, 2}, {3}}, 1); err == nil {
		t.Error("FitPCA with ragged rows did not error")
	}
}

func TestQQNormalGaussianNearDiagonal(t *testing.T) {
	r := rng.New(14)
	samples := make([]float64, 5000)
	for i := range samples {
		samples[i] = r.Gaussian(42, 7)
	}
	points := QQNormal(samples)
	corr := QQCorrelation(points)
	if corr < 0.999 {
		t.Errorf("Q-Q correlation for Gaussian data = %v, want > 0.999", corr)
	}
}

func TestQQNormalUniformDeviates(t *testing.T) {
	r := rng.New(15)
	gauss := make([]float64, 5000)
	unif := make([]float64, 5000)
	for i := range gauss {
		gauss[i] = r.Gaussian(0, 1)
		unif[i] = r.Float64()
	}
	gc := QQCorrelation(QQNormal(gauss))
	uc := QQCorrelation(QQNormal(unif))
	if uc >= gc {
		t.Errorf("uniform Q-Q correlation %v not below Gaussian %v", uc, gc)
	}
}

func TestKSNormal(t *testing.T) {
	r := rng.New(16)
	n := 2000
	gauss := make([]float64, n)
	skewed := make([]float64, n)
	for i := range gauss {
		gauss[i] = r.Gaussian(0, 1)
		skewed[i] = -math.Log(1 - r.Float64()) // Exp(1)
	}
	dg := KSNormal(gauss)
	ds := KSNormal(skewed)
	crit := 1.36 / math.Sqrt(float64(n))
	if dg > crit {
		t.Errorf("KS for Gaussian = %v above critical %v", dg, crit)
	}
	if ds < crit {
		t.Errorf("KS for exponential = %v below critical %v", ds, crit)
	}
}

func TestHistogramCounts(t *testing.T) {
	h := NewHistogram([]float64{0, 0.1, 0.9, 1.0}, 2)
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != 4 {
		t.Errorf("histogram total = %d, want 4", total)
	}
	if h.Counts[0] != 2 || h.Counts[1] != 2 {
		t.Errorf("histogram counts = %v, want [2 2]", h.Counts)
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if c := Pearson(xs, ys); math.Abs(c-1) > 1e-12 {
		t.Errorf("pearson = %v, want 1", c)
	}
	neg := []float64{8, 6, 4, 2}
	if c := Pearson(xs, neg); math.Abs(c+1) > 1e-12 {
		t.Errorf("pearson = %v, want -1", c)
	}
	if c := Pearson(xs, []float64{5, 5, 5, 5}); c != 0 {
		t.Errorf("pearson with constant = %v, want 0", c)
	}
}
