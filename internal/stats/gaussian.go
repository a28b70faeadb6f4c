// Package stats implements the statistical machinery used throughout Aegis:
// Gaussian modelling of HPC event values, entropy and mutual information
// (paper Eq. 1), principal component analysis for trace feature extraction,
// Q-Q comparison against the standard normal, Kolmogorov-Smirnov testing,
// histograms, and binned mutual-information estimation between trace sets.
package stats

import (
	"errors"
	"math"
)

// Gaussian is a univariate normal distribution N(mu, sigma^2).
type Gaussian struct {
	Mu    float64
	Sigma float64
}

// ErrInsufficientData is returned when an estimator is given fewer samples
// than it needs.
var ErrInsufficientData = errors.New("stats: insufficient data")

// FitGaussian estimates a Gaussian from samples by maximum likelihood.
// At least two samples are required so the variance is defined.
func FitGaussian(samples []float64) (Gaussian, error) {
	if len(samples) < 2 {
		return Gaussian{}, ErrInsufficientData
	}
	m := Mean(samples)
	v := Variance(samples, m)
	sigma := math.Sqrt(v)
	if sigma == 0 {
		// Degenerate distributions still need a usable density; use a
		// tiny width so PDF evaluations stay finite.
		sigma = 1e-9
	}
	return Gaussian{Mu: m, Sigma: sigma}, nil
}

// CDF evaluates the cumulative distribution at x.
func (g Gaussian) CDF(x float64) float64 {
	return 0.5 * math.Erfc(-(x-g.Mu)/(g.Sigma*math.Sqrt2))
}

// Quantile returns the inverse CDF at probability p in (0,1), computed with
// the Acklam rational approximation refined by one Newton step.
func (g Gaussian) Quantile(p float64) float64 {
	return g.Mu + g.Sigma*stdNormalQuantile(p)
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs around the given mean.
func Variance(xs []float64, mean float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		d := x - mean
		sum += d * d
	}
	return sum / float64(len(xs))
}

// SortedMedian returns the median of samples already in ascending order
// (0 for empty input).
func SortedMedian(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// MinMax returns the extrema of xs.
func MinMax(xs []float64) (minV, maxV float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	minV, maxV = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < minV {
			minV = x
		}
		if x > maxV {
			maxV = x
		}
	}
	return minV, maxV
}

// Normalize scales xs to zero mean and unit variance in place and returns
// the transform parameters so the same scaling can be applied to held-out
// data.
func Normalize(xs []float64) (mean, std float64) {
	mean = Mean(xs)
	std = math.Sqrt(Variance(xs, mean))
	if std == 0 {
		std = 1
	}
	for i := range xs {
		xs[i] = (xs[i] - mean) / std
	}
	return mean, std
}

// stdNormalQuantile is the inverse standard normal CDF (Acklam's
// approximation, |relative error| < 1.15e-9 after one Halley refinement).
func stdNormalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Coefficients for the rational approximations.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}

	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement using the normal PDF/CDF.
	e := 0.5*math.Erfc(-x/math.Sqrt2) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	return x - u/(1+x*u/2)
}
