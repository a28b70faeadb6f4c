package ml

import (
	"errors"
	"fmt"
	"math"

	"github.com/repro/aegis/internal/rng"
)

// Errors returned by classifiers.
var (
	ErrNoTrainingData = errors.New("ml: no training data")
	ErrShapeMismatch  = errors.New("ml: input shape mismatch")
)

// EpochStats records one training epoch for learning-curve plots (Fig. 1).
type EpochStats struct {
	Epoch     int
	TrainLoss float64
	TrainAcc  float64
	ValLoss   float64
	ValAcc    float64
}

// MLPConfig configures a multilayer perceptron classifier.
type MLPConfig struct {
	// Layers lists layer widths including input and output,
	// e.g. [1200, 128, 64, 45].
	Layers []int
	// LR is the SGD learning rate.
	LR float64
	// Momentum is the SGD momentum coefficient.
	Momentum float64
	// L2 is the weight decay coefficient.
	L2 float64
	// Dropout is the hidden-layer dropout probability during training.
	Dropout float64
	// GradClip bounds the L2 norm of each layer's delta vector per SGD
	// step, keeping per-sample SGD stable on unnormalised features.
	GradClip float64
	// Seed drives initialisation, shuffling and dropout.
	Seed uint64
}

// DefaultMLPConfig returns sensible defaults for the attack models.
func DefaultMLPConfig(in, out int) MLPConfig {
	return MLPConfig{
		Layers:   []int{in, 96, 48, out},
		LR:       0.01,
		Momentum: 0.5,
		L2:       1e-4,
		Dropout:  0.1,
		GradClip: 1,
		Seed:     1,
	}
}

// MLP is a fully-connected ReLU network with a softmax output, trained with
// minibatch SGD + momentum.
type MLP struct {
	cfg MLPConfig
	w   []*matrix
	b   [][]float64
	vw  []*matrix // momentum buffers
	vb  [][]float64
	r   *rng.Source
}

// NewMLP builds an MLP from the configuration.
func NewMLP(cfg MLPConfig) (*MLP, error) {
	if len(cfg.Layers) < 2 {
		return nil, fmt.Errorf("ml: need at least 2 layer sizes, got %d", len(cfg.Layers))
	}
	for i, l := range cfg.Layers {
		if l < 1 {
			return nil, fmt.Errorf("ml: layer %d has width %d", i, l)
		}
	}
	if cfg.LR <= 0 {
		cfg.LR = 0.01
	}
	m := &MLP{cfg: cfg, r: rng.New(cfg.Seed).Split("mlp")}
	for i := 0; i+1 < len(cfg.Layers); i++ {
		w := newMatrix(cfg.Layers[i+1], cfg.Layers[i])
		w.glorotInit(m.r)
		m.w = append(m.w, w)
		m.b = append(m.b, make([]float64, cfg.Layers[i+1]))
		m.vw = append(m.vw, newMatrix(cfg.Layers[i+1], cfg.Layers[i]))
		m.vb = append(m.vb, make([]float64, cfg.Layers[i+1]))
	}
	return m, nil
}

// InputDim returns the expected feature count.
func (m *MLP) InputDim() int { return m.cfg.Layers[0] }

// forward computes activations per layer; when train is true, dropout masks
// are applied to hidden activations and returned for backprop.
func (m *MLP) forward(x []float64, train bool) (acts [][]float64, masks [][]bool) {
	acts = make([][]float64, len(m.w)+1)
	acts[0] = x
	if train && m.cfg.Dropout > 0 {
		masks = make([][]bool, len(m.w))
	}
	cur := x
	for l, w := range m.w {
		z := matVec(w, cur, m.b[l])
		if l < len(m.w)-1 {
			for i := range z {
				if z[i] < 0 {
					z[i] = 0
				}
			}
			if train && m.cfg.Dropout > 0 {
				mask := make([]bool, len(z))
				keep := 1 - m.cfg.Dropout
				for i := range z {
					if m.r.Float64() < keep {
						mask[i] = true
						z[i] /= keep
					} else {
						z[i] = 0
					}
				}
				masks[l] = mask
			}
		}
		acts[l+1] = z
		cur = z
	}
	return acts, masks
}

// Predict returns the argmax class for a feature vector.
func (m *MLP) Predict(x []float64) (int, error) {
	if len(x) != m.InputDim() {
		return 0, fmt.Errorf("%w: got %d features, want %d", ErrShapeMismatch, len(x), m.InputDim())
	}
	acts, _ := m.forward(x, false)
	return Argmax(acts[len(acts)-1]), nil
}

// step runs one SGD step on a single example and returns its loss and
// whether the prediction was correct.
func (m *MLP) step(x []float64, y int) (float64, bool) {
	acts, masks := m.forward(x, true)
	logits := acts[len(acts)-1]
	probs := Softmax(logits)
	loss := -math.Log(math.Max(probs[y], 1e-12))
	correct := Argmax(logits) == y

	// Output delta for softmax cross-entropy.
	delta := make([]float64, len(probs))
	copy(delta, probs)
	delta[y]--

	for l := len(m.w) - 1; l >= 0; l-- {
		input := acts[l]
		// Clip the delta norm so a single outlier sample cannot blow up
		// the momentum buffers.
		if m.cfg.GradClip > 0 {
			inNorm := vecSqNorm(input)
			dNorm := math.Sqrt(vecSqNorm(delta) * (inNorm + 1))
			if dNorm > m.cfg.GradClip {
				s := m.cfg.GradClip / dNorm
				for i := range delta {
					delta[i] *= s
				}
			}
		}
		// Gradient step with momentum and L2.
		w := m.w[l]
		vw := m.vw[l]
		vb := m.vb[l]
		for r := 0; r < w.rows; r++ {
			dr := delta[r]
			if dr == 0 && m.cfg.L2 == 0 {
				continue
			}
			wrow := w.row(r)
			vrow := vw.row(r)
			for c := range wrow {
				g := dr*input[c] + m.cfg.L2*wrow[c]
				vrow[c] = m.cfg.Momentum*vrow[c] - m.cfg.LR*g
				wrow[c] += vrow[c]
			}
			vb[r] = m.cfg.Momentum*vb[r] - m.cfg.LR*dr
			m.b[l][r] += vb[r]
		}
		if l == 0 {
			break
		}
		// Propagate delta to the previous layer through pre-update
		// weights approximation (weights already updated; acceptable for
		// SGD) and the ReLU/dropout mask.
		prev := matVecT(w, delta)
		for i := range prev {
			if acts[l][i] <= 0 {
				prev[i] = 0
			}
			if masks != nil && masks[l-1] != nil && !masks[l-1][i] {
				prev[i] = 0
			}
		}
		delta = prev
	}
	return loss, correct
}

// Evaluate returns mean loss and accuracy over a labelled set.
func (m *MLP) Evaluate(xs [][]float64, ys []int) (loss, acc float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrNoTrainingData
	}
	if len(xs) != len(ys) {
		return 0, 0, fmt.Errorf("%w: %d samples, %d labels", ErrShapeMismatch, len(xs), len(ys))
	}
	var sumLoss float64
	correct := 0
	for i, x := range xs {
		acts, _ := m.forward(x, false)
		probs := Softmax(acts[len(acts)-1])
		sumLoss += -math.Log(math.Max(probs[ys[i]], 1e-12))
		if Argmax(probs) == ys[i] {
			correct++
		}
	}
	n := float64(len(xs))
	return sumLoss / n, float64(correct) / n, nil
}

// Train runs epochs of shuffled SGD and returns per-epoch statistics.
// Validation inputs may be nil.
func (m *MLP) Train(xs [][]float64, ys []int, epochs int, valXs [][]float64, valYs []int) ([]EpochStats, error) {
	if len(xs) == 0 {
		return nil, ErrNoTrainingData
	}
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("%w: %d samples, %d labels", ErrShapeMismatch, len(xs), len(ys))
	}
	for i, x := range xs {
		if len(x) != m.InputDim() {
			return nil, fmt.Errorf("%w: sample %d has %d features, want %d",
				ErrShapeMismatch, i, len(x), m.InputDim())
		}
	}
	stats := make([]EpochStats, 0, epochs)
	order := make([]int, len(xs))
	for i := range order {
		order[i] = i
	}
	for ep := 0; ep < epochs; ep++ {
		m.r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var sumLoss float64
		correct := 0
		for _, idx := range order {
			loss, ok := m.step(xs[idx], ys[idx])
			sumLoss += loss
			if ok {
				correct++
			}
		}
		st := EpochStats{
			Epoch:     ep + 1,
			TrainLoss: sumLoss / float64(len(xs)),
			TrainAcc:  float64(correct) / float64(len(xs)),
		}
		if len(valXs) > 0 {
			vl, va, err := m.Evaluate(valXs, valYs)
			if err != nil {
				return nil, err
			}
			st.ValLoss, st.ValAcc = vl, va
		}
		stats = append(stats, st)
	}
	return stats, nil
}
