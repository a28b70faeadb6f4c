package stats

import (
	"fmt"
	"math"
)

// Entropy returns the Shannon entropy (in bits) of a discrete probability
// distribution. Zero-probability entries contribute zero.
func Entropy(p []float64) float64 {
	var h float64
	for _, pi := range p {
		if pi > 0 {
			h -= pi * math.Log2(pi)
		}
	}
	return h
}

// ClassModel is the Gaussian leakage model of one secret class: the
// distribution of an event's feature value when the application runs that
// secret, plus the prior probability of the secret.
type ClassModel struct {
	Secret string
	Prior  float64
	Dist   Gaussian
}

// MutualInformation computes I(Y;X) per paper Eq. 1 for a set of secrets Y
// whose per-class feature distributions P(x|y) are Gaussian:
//
//	I(Y;X) = H(Y) - ∫ P(x) H(Y | X=x) dx
//
// The integral is evaluated numerically over ±span standard deviations
// around the widest class envelope with the given number of grid steps.
// The result is in bits and lies in [0, H(Y)] up to quadrature error. The
// prior/posterior grids are staged in the arena.
//
// The steady-state path is allocation-free: gated dynamically by TestZeroAllocStatsScratch
// (alloc_gate_test.go, `make bench-alloc`) and statically by the
// aegis-lint hotpath rule, which bans allocating constructs in any
// function carrying this annotation.
//
//aegis:hotpath
func (s *Scratch) MutualInformation(classes []ClassModel, steps int) (float64, error) {
	if len(classes) == 0 {
		return 0, ErrInsufficientData
	}
	if steps < 16 {
		steps = 16
	}
	s.priors = grow(s.priors, len(classes))
	priors := s.priors
	var total float64
	for i, c := range classes {
		if c.Prior < 0 {
			return 0, fmt.Errorf("stats: negative prior for %q", c.Secret) //aegis:allow(hotpath) cold validation branch; priors are screened before the loop in steady state
		}
		priors[i] = c.Prior
		total += c.Prior
	}
	if total == 0 {
		// Uniform prior by default.
		for i := range priors {
			priors[i] = 1 / float64(len(classes))
		}
	} else {
		for i := range priors {
			priors[i] /= total
		}
	}

	hy := Entropy(priors)

	// Integration domain: cover every class mean ± 6 sigma.
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
	if !(hi > lo) {
		return 0, ErrInsufficientData
	}

	dx := (hi - lo) / float64(steps)
	s.post = grow(s.post, len(classes))
	post := s.post
	// Hoist the per-class Gaussian constants out of the quadrature loop:
	// prior_i·PDF_i(x) = scaled_i · exp(-0.5·((x-mu_i)·invSig_i)²) with
	// scaled_i = prior_i/(sigma_i·√2π). This replaces two divisions and a
	// multiply per (step, class) with one multiply, and the posterior
	// normalisation below multiplies by a hoisted 1/px instead of dividing
	// per class. Both change floating-point rounding versus the unfused
	// quadrature, so the kernel goldens were explicitly re-pinned — see
	// TestKernelGoldenRepins for the old/new equivalence table.
	s.mus = grow(s.mus, len(classes))
	s.invSig = grow(s.invSig, len(classes))
	s.scaled = grow(s.scaled, len(classes))
	for i, c := range classes {
		s.mus[i] = c.Dist.Mu
		s.invSig[i] = 1 / c.Dist.Sigma
		s.scaled[i] = priors[i] / (c.Dist.Sigma * math.Sqrt(2*math.Pi))
	}
	mus, invSig, scaled := s.mus, s.invSig, s.scaled
	var condEntropy float64
	for step := 0; step < steps; step++ {
		x := lo + (float64(step)+0.5)*dx
		var px float64
		for i := range post {
			z := (x - mus[i]) * invSig[i]
			q := scaled[i] * math.Exp(-0.5*z*z)
			post[i] = q
			px += q
		}
		if px <= 0 {
			continue
		}
		// Fused sweep: posterior normalisation and the conditional-entropy
		// accumulation share one pass over the classes.
		invPx := 1 / px
		var h float64
		for _, q := range post {
			p := q * invPx
			if p > 0 {
				h -= p * math.Log2(p)
			}
		}
		condEntropy += px * h * dx
	}

	mi := hy - condEntropy
	if mi < 0 {
		mi = 0 // quadrature error can go slightly negative
	}
	if mi > hy {
		mi = hy
	}
	return mi, nil
}

// BinnedMI estimates the mutual information (in bits) between two paired
// continuous samples using an equal-width 2-D histogram. This is the
// estimator behind Fig. 9c: I(X;X') between clean and noised leakage traces.
//
// Repeated evaluations should go through Scratch.BinnedMI, which reuses
// the joint/marginal tables and produces bit-identical results.
func BinnedMI(xs, ys []float64, bins int) (float64, error) {
	return new(Scratch).BinnedMI(xs, ys, bins)
}

// BinnedMI is BinnedMI staged in the arena.
//
// The steady-state path is allocation-free: gated dynamically by TestZeroAllocStatsScratch
// (alloc_gate_test.go, `make bench-alloc`) and statically by the
// aegis-lint hotpath rule, which bans allocating constructs in any
// function carrying this annotation.
//
//aegis:hotpath
func (s *Scratch) BinnedMI(xs, ys []float64, bins int) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: paired samples length mismatch %d != %d", len(xs), len(ys)) //aegis:allow(hotpath) cold validation branch; lengths are fixed in steady state
	}
	if len(xs) < bins {
		return 0, ErrInsufficientData
	}
	if bins < 2 {
		bins = 2
	}
	xlo, xhi := MinMax(xs)
	ylo, yhi := MinMax(ys)
	if xhi == xlo {
		xhi = xlo + 1
	}
	if yhi == ylo {
		yhi = ylo + 1
	}
	s.jointSlab = grow(s.jointSlab, bins*bins)
	joint := s.jointSlab[: bins*bins : bins*bins]
	for i := range joint {
		joint[i] = 0
	}
	s.py = grow(s.py, bins)
	py := s.py[:bins:bins]
	for i := range py {
		py[i] = 0
	}
	binCounts(joint, py, xs, ys, bins, xlo, ylo, invW(bins, xlo, xhi), invW(bins, ylo, yhi))
	return countEntropyMI(joint, py, bins, float64(len(xs))), nil
}

// invW returns the reciprocal bin width float64(bins)/(hi-lo). Kept as
// one expression so every binning call site rounds identically.
//
//aegis:hotpath
func invW(bins int, lo, hi float64) float64 {
	return float64(bins) / (hi - lo)
}

// binCounts bins the paired samples into the bins×bins joint count table
// and the Y marginal: one multiply by the precomputed reciprocal bin
// width per axis instead of a divide per sample. The reciprocal form
// rounds differently from (v-lo)/(hi-lo)·bins, so a sample landing within
// one ULP of a bin boundary may shift one bin — the estimator goldens
// were explicitly re-pinned (see TestKernelGoldenRepins). Counts stay
// exact integers, so everything downstream of binning is
// order-insensitive.
//
// The steady-state path is allocation-free: gated dynamically by TestZeroAllocStatsScratch
// (alloc_gate_test.go, `make bench-alloc`) and statically by the
// aegis-lint hotpath rule, which bans allocating constructs in any
// function carrying this annotation.
//
//aegis:hotpath
func binCounts(joint, py, xs, ys []float64, bins int, xlo, ylo, invWx, invWy float64) {
	last := bins - 1
	for i := range xs {
		bx := int((xs[i] - xlo) * invWx)
		if bx < 0 {
			bx = 0
		} else if bx > last {
			bx = last
		}
		by := int((ys[i] - ylo) * invWy)
		if by < 0 {
			by = 0
		} else if by > last {
			by = last
		}
		joint[bx*bins+by]++
		py[by]++
	}
}

// countEntropyMI is the fused MI sweep over an exact-integer joint count
// table: the X-marginal histogram build and the MI accumulation share a
// single pass over each joint row — the row sum (an exact integer) is
// px[i], consumed immediately by the row's entropy term. The estimator is
// accumulated in count-entropy form,
//
//	I = (Σ c·log2 c − Σ px·log2 px − Σ py·log2 py)/n + log2 n,
//
// which is algebraically the Σ p·log2(p/(px·py)) sum but touches log2
// only for counts ≥ 2 (log2 1 = 0), and those counts are exact small
// integers served from a precomputed table. The summation order and
// rounding differ from the per-cell quotient form, so the estimator
// goldens were explicitly re-pinned (see TestKernelGoldenRepins).
//
// The steady-state path is allocation-free: gated dynamically by TestZeroAllocStatsScratch
// (alloc_gate_test.go, `make bench-alloc`) and statically by the
// aegis-lint hotpath rule, which bans allocating constructs in any
// function carrying this annotation.
//
//aegis:hotpath
func countEntropyMI(joint, py []float64, bins int, n float64) float64 {
	var sc, sx float64
	for i := 0; i < bins; i++ {
		row := joint[i*bins : (i+1)*bins : (i+1)*bins]
		var rx float64
		for _, c := range row {
			rx += c
			if c > 1 {
				sc += c * log2Count(c)
			}
		}
		if rx > 1 {
			sx += rx * log2Count(rx)
		}
	}
	var sy float64
	for _, c := range py {
		if c > 1 {
			sy += c * log2Count(c)
		}
	}
	mi := (sc-sx-sy)/n + math.Log2(n)
	if mi < 0 {
		mi = 0
	}
	return mi
}

// log2IntTab caches log2 of small integer counts; entries are produced by
// the same math.Log2 call sites the kernels would otherwise hit, so table
// hits are bit-identical to computing on demand.
var log2IntTab = func() [1025]float64 {
	var t [1025]float64
	for i := 1; i < len(t); i++ {
		t[i] = math.Log2(float64(i))
	}
	return t
}()

// log2Count returns log2 of a histogram count (an exact non-negative
// integer stored in a float64), from the table when small.
//
// The steady-state path is allocation-free: gated dynamically by TestZeroAllocStatsScratch
// (alloc_gate_test.go, `make bench-alloc`) and statically by the
// aegis-lint hotpath rule, which bans allocating constructs in any
// function carrying this annotation.
//
//aegis:hotpath
func log2Count(c float64) float64 {
	if ci := int(c); ci >= 0 && ci < len(log2IntTab) && float64(ci) == c {
		return log2IntTab[ci]
	}
	return math.Log2(c)
}

func binIndex(v, lo, hi float64, bins int) int {
	idx := int((v - lo) / (hi - lo) * float64(bins))
	if idx < 0 {
		idx = 0
	}
	if idx >= bins {
		idx = bins - 1
	}
	return idx
}
