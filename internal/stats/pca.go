package stats

import (
	"fmt"
	"math"
)

// PCA holds a fitted principal component analysis: the data mean and the
// top-k principal directions of the training matrix.
type PCA struct {
	Mean       []float64
	Components [][]float64 // k rows, each a unit vector of length d
	Variances  []float64   // eigenvalue (explained variance) per component
}

// FitPCA fits a PCA with k components to rows (n samples × d features)
// using covariance eigendecomposition via orthogonal power iteration with
// deflation. The paper uses PCA to reduce each leakage time-series to a
// compact feature value before Gaussian modelling (paper §V-B).
//
// The fit is staged in the arena: the mean/centered/component buffers and
// the power-iteration work vector are all reused across calls. The
// returned *PCA aliases the arena and is valid until the next call on s
// (see the Scratch ownership rules).
//
// The steady-state path is allocation-free: gated dynamically by TestZeroAllocStatsScratch
// (alloc_gate_test.go, `make bench-alloc`) and statically by the
// aegis-lint hotpath rule, which bans allocating constructs in any
// function carrying this annotation.
//
//aegis:hotpath
func (s *Scratch) FitPCA(rows [][]float64, k int) (*PCA, error) {
	n := len(rows)
	if n < 2 {
		return nil, ErrInsufficientData
	}
	d := len(rows[0])
	for i, r := range rows {
		if len(r) != d {
			return nil, fmt.Errorf("stats: row %d has %d features, want %d", i, len(r), d) //aegis:allow(hotpath) cold validation branch; shapes are fixed in steady state
		}
	}
	if k < 1 || k > d {
		return nil, fmt.Errorf("stats: invalid component count %d for dimension %d", k, d) //aegis:allow(hotpath) cold validation branch; shapes are fixed in steady state
	}

	s.mean = grow(s.mean, d)
	mean := s.mean
	for j := range mean {
		mean[j] = 0
	}
	for _, r := range rows {
		for j, v := range r {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}

	s.centSlab = grow(s.centSlab, n*d)
	for i, r := range rows {
		c := s.centSlab[i*d : (i+1)*d : (i+1)*d]
		for j, v := range r {
			c[j] = v - mean[j]
		}
	}
	return s.fitCentered(n, d, k)
}

// fitCentered runs the power iteration over the centered slab prepared by
// FitPCA.
//
// The steady-state path is allocation-free: gated dynamically by TestZeroAllocStatsScratch
// (alloc_gate_test.go, `make bench-alloc`) and statically by the
// aegis-lint hotpath rule, which bans allocating constructs in any
// function carrying this annotation.
//
//aegis:hotpath
func (s *Scratch) fitCentered(n, d, k int) (*PCA, error) {
	centered := s.centSlab[: n*d : n*d]
	s.compRows = growRows(s.compRows, k)
	s.compSlab = grow(s.compSlab, k*d)
	s.vars = grow(s.vars, k)
	s.w = grow(s.w, d)
	s.pca = PCA{
		Mean:       s.mean,
		Components: s.compRows[:0],
		Variances:  s.vars[:0],
	}
	p := &s.pca

	// Power iteration on the covariance operator. We never materialise the
	// d×d covariance matrix: cov·v = (1/n) Σ_i (x_i·v) x_i, which keeps the
	// cost at O(n·d) per iteration even for long traces.
	for comp := 0; comp < k; comp++ {
		v := s.compSlab[comp*d : (comp+1)*d : (comp+1)*d]
		// Deterministic non-degenerate start vector.
		for j := range v {
			v[j] = 1 / math.Sqrt(float64(d))
			if (j+comp)%2 == 1 {
				v[j] = -v[j]
			}
		}
		orthonormalize(v, p.Components)
		var lambda float64
		for iter := 0; iter < 200; iter++ {
			w := s.w
			covApplySlab(w, centered, n, d, v)
			orthonormalize(w, p.Components)
			norm := vecNorm(w)
			if norm < 1e-14 {
				break // no variance left in the residual subspace
			}
			for j := range w {
				w[j] /= norm
			}
			delta := 0.0
			for j := range w {
				delta += (w[j] - v[j]) * (w[j] - v[j])
			}
			copy(v, w)
			lambda = norm
			if delta < 1e-18 {
				break
			}
		}
		//aegis:allow(hotpath) arena-backed slices pre-grown to capacity k above; these appends never reallocate
		p.Components = append(p.Components, v)
		p.Variances = append(p.Variances, lambda) //aegis:allow(hotpath) arena-backed slice pre-grown to capacity k above; never reallocates
	}
	return p, nil
}

// FirstComponent projects a sample onto the leading principal direction and
// returns the scalar feature value used for Gaussian modelling, without
// allocating, so per-trace feature extraction stays allocation-free.
func (p *PCA) FirstComponent(row []float64) (float64, error) {
	if len(row) != len(p.Mean) {
		return 0, fmt.Errorf("stats: sample has %d features, PCA fitted on %d", len(row), len(p.Mean))
	}
	comp := p.Components[0]
	var dot float64
	for j, v := range row {
		dot += (v - p.Mean[j]) * comp[j]
	}
	return dot, nil
}

// covBlock is the register-blocking factor of covApplySlab: rows are
// processed in slabs of covBlock, giving covBlock independent dot-product
// accumulation chains (the serial FP-add latency otherwise bounds the
// loop) and one fused pass over `out` per block instead of one per row.
const covBlock = 4

// covApplySlab writes cov·v into out (zeroing it first) — the power-
// iteration step over the centered n×d row-major slab. Rows are carved in
// blocks of covBlock directly out of the slab: the block's dot products
// run as independent accumulator chains over one shared load of v, and the
// out update applies all covBlock contributions left-to-right, which is
// the exact floating-point operation order of the row-at-a-time form —
// the blocked kernel is bit-identical, so the PR-4 Float64bits pins hold
// (asserted by TestBlockedCovApplyBitIdentical).
//
// The steady-state path is allocation-free: gated dynamically by TestZeroAllocStatsScratch
// (alloc_gate_test.go, `make bench-alloc`) and statically by the
// aegis-lint hotpath rule, which bans allocating constructs in any
// function carrying this annotation.
//
//aegis:hotpath
func covApplySlab(out []float64, slab []float64, n, d int, v []float64) {
	for j := range out {
		out[j] = 0
	}
	i := 0
	for ; i+covBlock <= n; i += covBlock {
		r0 := slab[(i+0)*d : (i+1)*d : (i+1)*d]
		r1 := slab[(i+1)*d : (i+2)*d : (i+2)*d]
		r2 := slab[(i+2)*d : (i+3)*d : (i+3)*d]
		r3 := slab[(i+3)*d : (i+4)*d : (i+4)*d]
		var d0, d1, d2, d3 float64
		for j, vj := range v {
			d0 += r0[j] * vj
			d1 += r1[j] * vj
			d2 += r2[j] * vj
			d3 += r3[j] * vj
		}
		// Left-to-right accumulation replays the row-sequential add order:
		// ((((out + d0·r0) + d1·r1) + d2·r2) + d3·r3).
		for j := range out {
			out[j] = out[j] + d0*r0[j] + d1*r1[j] + d2*r2[j] + d3*r3[j]
		}
	}
	for ; i < n; i++ {
		x := slab[i*d : (i+1)*d : (i+1)*d]
		var dot float64
		for j, vj := range v {
			dot += x[j] * vj
		}
		for j := range out {
			out[j] += dot * x[j]
		}
	}
	nf := float64(n)
	for j := range out {
		out[j] /= nf
	}
}

// orthonormalize removes the projections of v onto each basis vector
// (Gram-Schmidt) in place.
func orthonormalize(v []float64, basis [][]float64) {
	for _, b := range basis {
		var dot float64
		for j := range v {
			dot += v[j] * b[j]
		}
		for j := range v {
			v[j] -= dot * b[j]
		}
	}
}

func vecNorm(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}
