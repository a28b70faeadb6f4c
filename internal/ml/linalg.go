// Package ml implements the machine-learning models of the paper's attack
// abstraction (f_θ : X → Y) from scratch on the standard library:
//
//   - a multilayer perceptron for the classification attacks (website
//     fingerprinting, keystroke sniffing),
//   - a bidirectional GRU with a CTC decoder for the sequence-to-sequence
//     model extraction attack.
//
// All training is plain SGD with momentum; the package records per-epoch
// statistics so experiments can regenerate the paper's training curves
// (Fig. 1).
package ml

import (
	"math"

	"github.com/repro/aegis/internal/rng"
)

// matrix is a dense rows×cols matrix in row-major order.
type matrix struct {
	rows, cols int
	data       []float64
}

func newMatrix(rows, cols int) *matrix {
	return &matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// row returns a view of row r.
func (m *matrix) row(r int) []float64 {
	return m.data[r*m.cols : (r+1)*m.cols]
}

// glorotInit fills the matrix with Glorot-uniform values.
func (m *matrix) glorotInit(r *rng.Source) {
	limit := math.Sqrt(6.0 / float64(m.rows+m.cols))
	for i := range m.data {
		m.data[i] = (2*r.Float64() - 1) * limit
	}
}

// matVec computes y = W x (+ b when b != nil) for W rows×cols, x len cols.
func matVec(w *matrix, x, b []float64) []float64 {
	out := make([]float64, w.rows)
	for r := 0; r < w.rows; r++ {
		row := w.row(r)
		var s float64
		for c, xv := range x {
			s += row[c] * xv
		}
		if b != nil {
			s += b[r]
		}
		out[r] = s
	}
	return out
}

// matVecT computes y = Wᵀ x for W rows×cols, x len rows (used for backprop).
func matVecT(w *matrix, x []float64) []float64 {
	out := make([]float64, w.cols)
	for r := 0; r < w.rows; r++ {
		row := w.row(r)
		xv := x[r]
		if xv == 0 {
			continue
		}
		for c := range row {
			out[c] += row[c] * xv
		}
	}
	return out
}

// Softmax returns the softmax of logits (numerically stabilised).
func Softmax(logits []float64) []float64 {
	maxV := math.Inf(-1)
	for _, v := range logits {
		if v > maxV {
			maxV = v
		}
	}
	out := make([]float64, len(logits))
	var sum float64
	for i, v := range logits {
		e := math.Exp(v - maxV)
		out[i] = e
		sum += e
	}
	if sum == 0 {
		for i := range out {
			out[i] = 1 / float64(len(out))
		}
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// LogSoftmax returns log(softmax(logits)).
func LogSoftmax(logits []float64) []float64 {
	maxV := math.Inf(-1)
	for _, v := range logits {
		if v > maxV {
			maxV = v
		}
	}
	var sum float64
	for _, v := range logits {
		sum += math.Exp(v - maxV)
	}
	logZ := maxV + math.Log(sum)
	out := make([]float64, len(logits))
	for i, v := range logits {
		out[i] = v - logZ
	}
	return out
}

// Argmax returns the index of the largest element (-1 for empty input).
func Argmax(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	_ = xs[best]
	return best
}

// sigmoid and tanh helpers for the GRU.
func sigmoid(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}

// logSumExp returns log(exp(a)+exp(b)) stably; used by the CTC recursion.
func logSumExp(a, b float64) float64 {
	if math.IsInf(a, -1) {
		return b
	}
	if math.IsInf(b, -1) {
		return a
	}
	if a < b {
		a, b = b, a
	}
	return a + math.Log1p(math.Exp(b-a))
}
