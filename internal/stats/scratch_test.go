package stats

import (
	"fmt"
	"math"
	"testing"

	"github.com/repro/aegis/internal/rng"
)

// testRows builds a deterministic sample matrix with correlated structure.
func testRows(r *rng.Source, n, d int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, d)
		base := r.Gaussian(0, 2)
		for j := range row {
			row[j] = base*float64(j%5) + r.Gaussian(0, 1)
		}
		rows[i] = row
	}
	return rows
}

// TestScratchFitPCAEquivalence pins PCA fits in one reused arena
// bit-identically against fresh arenas, across reuses with different
// shapes.
func TestScratchFitPCAEquivalence(t *testing.T) {
	r := rng.New(42).Split("scratch-pca")
	s := &Scratch{}
	for _, shape := range []struct{ n, d, k int }{
		{8, 12, 1}, {30, 40, 3}, {8, 12, 2}, {5, 3, 1},
	} {
		rows := testRows(r, shape.n, shape.d)
		want, err := new(Scratch).FitPCA(rows, shape.k)
		if err != nil {
			t.Fatalf("fresh FitPCA(%v): %v", shape, err)
		}
		got, err := s.FitPCA(rows, shape.k)
		if err != nil {
			t.Fatalf("reused FitPCA(%v): %v", shape, err)
		}
		for j := range want.Mean {
			if math.Float64bits(got.Mean[j]) != math.Float64bits(want.Mean[j]) {
				t.Fatalf("shape %v: mean[%d] = %v, want %v", shape, j, got.Mean[j], want.Mean[j])
			}
		}
		if len(got.Components) != len(want.Components) {
			t.Fatalf("shape %v: %d components, want %d", shape, len(got.Components), len(want.Components))
		}
		for c := range want.Components {
			if math.Float64bits(got.Variances[c]) != math.Float64bits(want.Variances[c]) {
				t.Fatalf("shape %v: variance[%d] = %v, want %v", shape, c, got.Variances[c], want.Variances[c])
			}
			for j := range want.Components[c] {
				if math.Float64bits(got.Components[c][j]) != math.Float64bits(want.Components[c][j]) {
					t.Fatalf("shape %v: component[%d][%d] = %v, want %v",
						shape, c, j, got.Components[c][j], want.Components[c][j])
				}
			}
		}
	}
}

// Transform projects a sample onto every fitted component: the general,
// allocating projection FirstComponent is checked against.
func (p *PCA) Transform(row []float64) ([]float64, error) {
	if len(row) != len(p.Mean) {
		return nil, fmt.Errorf("stats: sample has %d features, PCA fitted on %d", len(row), len(p.Mean))
	}
	out := make([]float64, len(p.Components))
	for c, comp := range p.Components {
		var dot float64
		for j, v := range row {
			dot += (v - p.Mean[j]) * comp[j]
		}
		out[c] = dot
	}
	return out, nil
}

// TestFirstComponentMatchesTransform pins the allocation-free projection
// against the general Transform.
func TestFirstComponentMatchesTransform(t *testing.T) {
	r := rng.New(7).Split("first-comp")
	rows := testRows(r, 20, 16)
	p, err := new(Scratch).FitPCA(rows, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		tr, err := p.Transform(row)
		if err != nil {
			t.Fatal(err)
		}
		fc, err := p.FirstComponent(row)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(fc) != math.Float64bits(tr[0]) {
			t.Fatalf("row %d: FirstComponent = %v, Transform[0] = %v", i, fc, tr[0])
		}
	}
	if _, err := p.FirstComponent(rows[0][:3]); err == nil {
		t.Fatal("FirstComponent accepted a short row")
	}
}

// TestScratchMIEquivalence pins MutualInformation in a reused arena
// against fresh arenas, and scratch BinnedMI against the allocating path,
// bit-identically.
func TestScratchMIEquivalence(t *testing.T) {
	s := &Scratch{}
	for _, nc := range []int{2, 5, 9} {
		classes := make([]ClassModel, nc)
		for i := range classes {
			classes[i] = ClassModel{
				Secret: string(rune('a' + i)),
				Prior:  float64(i + 1),
				Dist:   Gaussian{Mu: float64(i) * 1.5, Sigma: 0.5 + 0.3*float64(i)},
			}
		}
		want, err := new(Scratch).MutualInformation(classes, 300)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.MutualInformation(classes, 300)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("nc=%d: scratch MI = %v, want %v", nc, got, want)
		}
	}

	r := rng.New(9).Split("binned")
	for _, bins := range []int{4, 16, 8} {
		xs := make([]float64, 400)
		ys := make([]float64, 400)
		for i := range xs {
			xs[i] = r.Gaussian(0, 1)
			ys[i] = xs[i]*0.7 + r.Gaussian(0, 0.5)
		}
		want, err := BinnedMI(xs, ys, bins)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.BinnedMI(xs, ys, bins)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("bins=%d: scratch BinnedMI = %v, want %v", bins, got, want)
		}
	}
}
