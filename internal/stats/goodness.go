package stats

import (
	"math"
	"sort"
)

// QQPoint is one point of a quantile-quantile plot: the theoretical standard
// normal quantile against the observed standardised sample quantile.
type QQPoint struct {
	Theoretical float64
	Observed    float64
}

// QQNormal produces the Q-Q plot data of samples against N(0,1), as in
// paper Fig. 3b. The samples are standardised first so perfectly Gaussian
// data lies on the y = x diagonal.
func QQNormal(samples []float64) []QQPoint {
	n := len(samples)
	if n == 0 {
		return nil
	}
	std := make([]float64, n)
	copy(std, samples)
	Normalize(std)
	sort.Float64s(std)
	points := make([]QQPoint, n)
	stdNormal := Gaussian{Mu: 0, Sigma: 1}
	for i := 0; i < n; i++ {
		// Blom plotting position.
		p := (float64(i) + 0.625) / (float64(n) + 0.25)
		points[i] = QQPoint{
			Theoretical: stdNormal.Quantile(p),
			Observed:    std[i],
		}
	}
	return points
}

// QQCorrelation returns the Pearson correlation of the Q-Q points; values
// near 1 indicate the sample is close to Gaussian.
func QQCorrelation(points []QQPoint) float64 {
	n := len(points)
	if n < 2 {
		return 0
	}
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i, p := range points {
		xs[i] = p.Theoretical
		ys[i] = p.Observed
	}
	return Pearson(xs, ys)
}

// Pearson returns the Pearson correlation coefficient of two equal-length
// samples (0 when either sample is constant).
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// KSNormal runs a one-sample Kolmogorov-Smirnov test of samples against the
// Gaussian fitted to them, returning the KS statistic D. Small D indicates
// good fit; the conventional 5% critical value is ~1.36/sqrt(n).
func KSNormal(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	g, err := FitGaussian(samples)
	if err != nil {
		return 0
	}
	cp := make([]float64, n)
	copy(cp, samples)
	sort.Float64s(cp)
	var maxD float64
	for i, x := range cp {
		cdf := g.CDF(x)
		dPlus := float64(i+1)/float64(n) - cdf
		dMinus := cdf - float64(i)/float64(n)
		if dPlus > maxD {
			maxD = dPlus
		}
		if dMinus > maxD {
			maxD = dMinus
		}
	}
	return maxD
}

// Histogram bins samples into equal-width buckets over [lo, hi] and returns
// the per-bucket counts (used for the Fig. 3a density view).
type Histogram struct {
	Lo, Hi float64
	Counts []int
}

// NewHistogram builds a histogram with the given number of bins spanning
// the sample range.
func NewHistogram(samples []float64, bins int) Histogram {
	if bins < 1 {
		bins = 1
	}
	lo, hi := MinMax(samples)
	if hi == lo {
		hi = lo + 1
	}
	h := Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
	for _, v := range samples {
		h.Counts[binIndex(v, lo, hi, bins)]++
	}
	return h
}

// Spearman returns the Spearman rank correlation of two equal-length
// samples: the Pearson correlation of their rank vectors, with average
// ranks for ties.
func Spearman(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	return Pearson(ranks(xs), ranks(ys))
}

// ranks returns the 1-based average ranks of xs.
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	out := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Average rank over the tie group [i, j].
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}
