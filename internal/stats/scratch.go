package stats

// Scratch is a reusable buffer arena for the numeric kernels. The offline
// pipelines call FitPCA / MutualInformation / BinnedMI thousands of times
// per campaign with identically-shaped inputs; routing those calls through
// a Scratch reuses every intermediate buffer across calls, making the
// steady state allocation-free (gated by `make bench-alloc`).
//
// Ownership rules:
//
//   - A Scratch is single-owner: it is not safe for concurrent use. Each
//     parallel worker must hold its own (the profiler pools them).
//   - Results returned by Scratch methods (the *PCA, in particular) alias
//     the arena and are valid only until the next call on the same
//     Scratch. Callers that need to retain a result across calls must
//     copy it out — or use a fresh Scratch per call.
//   - The zero value is ready to use; buffers grow to the high-water mark
//     of the shapes seen and are then reused.
//
// Every kernel performs the same floating-point operations in the same
// order whatever the arena's history, so results are bit-identical
// across reuse (and BinnedMI matches its package-level counterpart).
type Scratch struct {
	// FitPCA: the centered sample block lives in one row-major slab so
	// the blocked covariance kernel streams it with register-blocked inner
	// loops (see covApplySlab).
	mean     []float64
	centSlab []float64
	compRows [][]float64
	compSlab []float64
	vars     []float64
	w        []float64
	pca      PCA

	// MutualInformation: posterior grid plus the hoisted per-class
	// Gaussian constants (mean, 1/sigma, prior-scaled normalisation).
	priors []float64
	post   []float64
	mus    []float64
	invSig []float64
	scaled []float64

	// BinnedMI: the joint histogram slab and the Y marginal; the X
	// marginal is derived row by row inside the fused MI sweep.
	jointSlab []float64
	py        []float64
}

// grow returns buf resized to n elements, reusing its backing array when
// possible. Contents are unspecified; callers that accumulate must zero.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// growRows is grow for slices of rows.
func growRows(buf [][]float64, n int) [][]float64 {
	if cap(buf) < n {
		return make([][]float64, n)
	}
	return buf[:n]
}
