package ml

import (
	"fmt"
	"math"

	"github.com/repro/aegis/internal/rng"
)

// GRUConfig configures the bidirectional GRU sequence model used by the
// model extraction attack (paper §III-E: a bidirectional GRU with a CTC
// decoder).
type GRUConfig struct {
	// InputDim is the per-timestep feature count (monitored HPC events).
	InputDim int
	// Hidden is the per-direction hidden width.
	Hidden int
	// Classes is the output alphabet size excluding the CTC blank.
	Classes int
	// LR is the SGD learning rate; GradClip bounds the gradient norm.
	LR       float64
	GradClip float64
	Seed     uint64
}

// DefaultGRUConfig returns the evaluation defaults.
func DefaultGRUConfig(inputDim, classes int) GRUConfig {
	return GRUConfig{
		InputDim: inputDim,
		Hidden:   24,
		Classes:  classes,
		LR:       0.02,
		GradClip: 5,
		Seed:     1,
	}
}

// gruDir is one direction's parameter set.
type gruDir struct {
	wz, wr, wh *matrix // input weights: hidden×input
	uz, ur, uh *matrix // recurrent weights: hidden×hidden
	bz, br, bh []float64
}

func newGRUDir(hidden, input int, r *rng.Source) *gruDir {
	d := &gruDir{
		wz: newMatrix(hidden, input), wr: newMatrix(hidden, input), wh: newMatrix(hidden, input),
		uz: newMatrix(hidden, hidden), ur: newMatrix(hidden, hidden), uh: newMatrix(hidden, hidden),
		bz: make([]float64, hidden), br: make([]float64, hidden), bh: make([]float64, hidden),
	}
	for _, m := range []*matrix{d.wz, d.wr, d.wh, d.uz, d.ur, d.uh} {
		m.glorotInit(r)
	}
	return d
}

// gruTrace holds the per-timestep forward state of one direction.
type gruTrace struct {
	z, r, hc, h [][]float64
}

// forward runs the direction over xs (already in scan order) and returns
// hidden states plus the trace for backprop.
func (d *gruDir) forward(xs [][]float64, hidden int) *gruTrace {
	T := len(xs)
	tr := &gruTrace{
		z:  make([][]float64, T),
		r:  make([][]float64, T),
		hc: make([][]float64, T),
		h:  make([][]float64, T),
	}
	prev := make([]float64, hidden)
	for t := 0; t < T; t++ {
		x := xs[t]
		z := matVec(d.wz, x, d.bz)
		addInPlace(z, matVec(d.uz, prev, nil))
		for i := range z {
			z[i] = sigmoid(z[i])
		}
		r := matVec(d.wr, x, d.br)
		addInPlace(r, matVec(d.ur, prev, nil))
		for i := range r {
			r[i] = sigmoid(r[i])
		}
		rh := make([]float64, hidden)
		for i := range rh {
			rh[i] = r[i] * prev[i]
		}
		hc := matVec(d.wh, x, d.bh)
		addInPlace(hc, matVec(d.uh, rh, nil))
		for i := range hc {
			hc[i] = math.Tanh(hc[i])
		}
		h := make([]float64, hidden)
		for i := range h {
			h[i] = (1-z[i])*prev[i] + z[i]*hc[i]
		}
		tr.z[t], tr.r[t], tr.hc[t], tr.h[t] = z, r, hc, h
		prev = h
	}
	return tr
}

// gruGrads accumulates gradients for one direction.
type gruGrads struct {
	wz, wr, wh *matrix
	uz, ur, uh *matrix
	bz, br, bh []float64
}

func newGRUGrads(hidden, input int) *gruGrads {
	return &gruGrads{
		wz: newMatrix(hidden, input), wr: newMatrix(hidden, input), wh: newMatrix(hidden, input),
		uz: newMatrix(hidden, hidden), ur: newMatrix(hidden, hidden), uh: newMatrix(hidden, hidden),
		bz: make([]float64, hidden), br: make([]float64, hidden), bh: make([]float64, hidden),
	}
}

// backward runs BPTT for one direction. xs is in scan order, dh[t] is the
// gradient flowing into h[t] from the output layer.
func (d *gruDir) backward(xs [][]float64, tr *gruTrace, dh [][]float64, g *gruGrads, hidden int) {
	T := len(xs)
	carry := make([]float64, hidden) // gradient wrt h[t] from t+1
	for t := T - 1; t >= 0; t-- {
		dht := make([]float64, hidden)
		copy(dht, dh[t])
		addInPlace(dht, carry)

		var prev []float64
		if t > 0 {
			prev = tr.h[t-1]
		} else {
			prev = make([]float64, hidden)
		}
		z, r, hc := tr.z[t], tr.r[t], tr.hc[t]

		dz := make([]float64, hidden)
		dhc := make([]float64, hidden)
		dprev := make([]float64, hidden)
		for i := 0; i < hidden; i++ {
			dz[i] = dht[i] * (hc[i] - prev[i]) * z[i] * (1 - z[i])
			dhc[i] = dht[i] * z[i] * (1 - hc[i]*hc[i])
			dprev[i] = dht[i] * (1 - z[i])
		}

		// Through candidate: hc = tanh(Wh x + Uh (r ⊙ prev) + bh).
		duhIn := matVecT(d.uh, dhc) // gradient wrt (r ⊙ prev)
		dr := make([]float64, hidden)
		for i := 0; i < hidden; i++ {
			dr[i] = duhIn[i] * prev[i] * r[i] * (1 - r[i])
			dprev[i] += duhIn[i] * r[i]
		}

		// Accumulate parameter gradients.
		rh := make([]float64, hidden)
		for i := range rh {
			rh[i] = r[i] * prev[i]
		}
		outerAcc(g.wz, dz, xs[t])
		outerAcc(g.uz, dz, prev)
		addInPlace(g.bz, dz)
		outerAcc(g.wr, dr, xs[t])
		outerAcc(g.ur, dr, prev)
		addInPlace(g.br, dr)
		outerAcc(g.wh, dhc, xs[t])
		outerAcc(g.uh, dhc, rh)
		addInPlace(g.bh, dhc)

		// Gradient wrt prev through the gates.
		addInPlace(dprev, matVecT(d.uz, dz))
		addInPlace(dprev, matVecT(d.ur, dr))
		carry = dprev
	}
}

// apply performs an SGD update with the given scale (lr/batch) after norm
// clipping computed by the caller.
func (d *gruDir) apply(g *gruGrads, scale float64) {
	axpyMat(d.wz, g.wz, -scale)
	axpyMat(d.wr, g.wr, -scale)
	axpyMat(d.wh, g.wh, -scale)
	axpyMat(d.uz, g.uz, -scale)
	axpyMat(d.ur, g.ur, -scale)
	axpyMat(d.uh, g.uh, -scale)
	axpyVec(d.bz, g.bz, -scale)
	axpyVec(d.br, g.br, -scale)
	axpyVec(d.bh, g.bh, -scale)
}

func (g *gruGrads) sqNorm() float64 {
	var s float64
	for _, m := range []*matrix{g.wz, g.wr, g.wh, g.uz, g.ur, g.uh} {
		for _, v := range m.data {
			s += v * v
		}
	}
	for _, b := range [][]float64{g.bz, g.br, g.bh} {
		for _, v := range b {
			s += v * v
		}
	}
	return s
}

// BiGRUCTC is the full sequence model: a bidirectional GRU feeding a linear
// projection to per-timestep logits over classes+1 symbols (index 0 is the
// CTC blank).
type BiGRUCTC struct {
	cfg GRUConfig
	fwd *gruDir
	bwd *gruDir
	wo  *matrix // (classes+1) × 2*hidden
	bo  []float64
	r   *rng.Source
}

// NewBiGRUCTC builds the model.
func NewBiGRUCTC(cfg GRUConfig) (*BiGRUCTC, error) {
	if cfg.InputDim < 1 || cfg.Hidden < 1 || cfg.Classes < 1 {
		return nil, fmt.Errorf("ml: invalid GRU config %+v", cfg)
	}
	if cfg.LR <= 0 {
		cfg.LR = 0.02
	}
	if cfg.GradClip <= 0 {
		cfg.GradClip = 5
	}
	r := rng.New(cfg.Seed).Split("bigru")
	m := &BiGRUCTC{
		cfg: cfg,
		fwd: newGRUDir(cfg.Hidden, cfg.InputDim, r),
		bwd: newGRUDir(cfg.Hidden, cfg.InputDim, r),
		wo:  newMatrix(cfg.Classes+1, 2*cfg.Hidden),
		bo:  make([]float64, cfg.Classes+1),
		r:   r,
	}
	m.wo.glorotInit(r)
	return m, nil
}

// Logits runs the network over a sequence (T × InputDim) and returns per-
// timestep logits (T × Classes+1).
func (m *BiGRUCTC) Logits(xs [][]float64) ([][]float64, error) {
	logits, _, _, err := m.forwardFull(xs)
	return logits, err
}

func (m *BiGRUCTC) forwardFull(xs [][]float64) ([][]float64, *gruTrace, *gruTrace, error) {
	if len(xs) == 0 {
		return nil, nil, nil, ErrNoTrainingData
	}
	for t, x := range xs {
		if len(x) != m.cfg.InputDim {
			return nil, nil, nil, fmt.Errorf("%w: timestep %d has %d features, want %d",
				ErrShapeMismatch, t, len(x), m.cfg.InputDim)
		}
	}
	T := len(xs)
	fwdTr := m.fwd.forward(xs, m.cfg.Hidden)
	rev := make([][]float64, T)
	for t := 0; t < T; t++ {
		rev[t] = xs[T-1-t]
	}
	bwdTr := m.bwd.forward(rev, m.cfg.Hidden)

	logits := make([][]float64, T)
	for t := 0; t < T; t++ {
		cat := make([]float64, 2*m.cfg.Hidden)
		copy(cat, fwdTr.h[t])
		copy(cat[m.cfg.Hidden:], bwdTr.h[T-1-t])
		logits[t] = matVec(m.wo, cat, m.bo)
	}
	return logits, fwdTr, bwdTr, nil
}

// TrainStep runs one CTC-SGD step on a single (sequence, label) pair and
// returns the CTC loss. Labels use the external alphabet [0, Classes); the
// blank is handled internally.
func (m *BiGRUCTC) TrainStep(xs [][]float64, label []int) (float64, error) {
	logits, fwdTr, bwdTr, err := m.forwardFull(xs)
	if err != nil {
		return 0, err
	}
	loss, dLogits, err := ctcLossGrad(logits, label, m.cfg.Classes)
	if err != nil {
		return 0, err
	}
	T := len(xs)
	H := m.cfg.Hidden

	// Backprop through the output layer.
	gwo := newMatrix(m.wo.rows, m.wo.cols)
	gbo := make([]float64, len(m.bo))
	dhF := make([][]float64, T)
	dhB := make([][]float64, T)
	for t := 0; t < T; t++ {
		cat := make([]float64, 2*H)
		copy(cat, fwdTr.h[t])
		copy(cat[H:], bwdTr.h[T-1-t])
		outerAcc(gwo, dLogits[t], cat)
		addInPlace(gbo, dLogits[t])
		dcat := matVecT(m.wo, dLogits[t])
		dhF[t] = dcat[:H]
		if dhB[T-1-t] == nil {
			dhB[T-1-t] = make([]float64, H)
		}
		copy(dhB[T-1-t], dcat[H:])
	}

	rev := make([][]float64, T)
	for t := 0; t < T; t++ {
		rev[t] = xs[T-1-t]
	}
	gF := newGRUGrads(H, m.cfg.InputDim)
	gB := newGRUGrads(H, m.cfg.InputDim)
	m.fwd.backward(xs, fwdTr, dhF, gF, H)
	m.bwd.backward(rev, bwdTr, dhB, gB, H)

	// Global norm clipping.
	norm := math.Sqrt(gF.sqNorm() + gB.sqNorm() + matSqNorm(gwo) + vecSqNorm(gbo))
	scale := m.cfg.LR
	if norm > m.cfg.GradClip {
		scale *= m.cfg.GradClip / norm
	}
	m.fwd.apply(gF, scale)
	m.bwd.apply(gB, scale)
	axpyMat(m.wo, gwo, -scale)
	axpyVec(m.bo, gbo, -scale)
	return loss, nil
}

// DecodeBeam returns the beam-search CTC decoding with the given width;
// width 1 is the greedy best-path decoding.
func (m *BiGRUCTC) DecodeBeam(xs [][]float64, width int) ([]int, error) {
	logits, err := m.Logits(xs)
	if err != nil {
		return nil, err
	}
	return BeamCTCDecode(logits, width), nil
}

// helper kernels ------------------------------------------------------------

func addInPlace(dst, src []float64) {
	for i := range src {
		dst[i] += src[i]
	}
}

// outerAcc accumulates m += a bᵀ (a len rows, b len cols).
func outerAcc(m *matrix, a, b []float64) {
	for r := 0; r < m.rows; r++ {
		av := a[r]
		if av == 0 {
			continue
		}
		row := m.row(r)
		for c := range row {
			row[c] += av * b[c]
		}
	}
}

func axpyMat(dst, src *matrix, alpha float64) {
	for i := range dst.data {
		dst.data[i] += alpha * src.data[i]
	}
}

func axpyVec(dst, src []float64, alpha float64) {
	for i := range dst {
		dst[i] += alpha * src[i]
	}
}

func matSqNorm(m *matrix) float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return s
}

func vecSqNorm(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return s
}
