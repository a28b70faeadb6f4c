package ml

import (
	"fmt"
	"math"

	"github.com/repro/aegis/internal/rng"
)

// CNN1D is a compact 1-D convolutional classifier over multi-channel time
// series, the architecture class the paper uses for website fingerprinting
// and keystroke sniffing (§III-C: convolution layers + fully-connected
// layers with batch-norm-like scaling and dropout). The network is
//
//	conv(k, stride) → ReLU → conv(k, stride) → ReLU → global average
//	pooling per filter → FC → ReLU → FC → softmax
//
// trained with SGD + momentum and per-step gradient clipping. Convolution
// gives the model the translation invariance that the MLP attack needs
// engineered pooled features for.
type CNN1D struct {
	cfg CNNConfig

	conv1 *convLayer
	conv2 *convLayer
	fc1   *denseLayer
	fc2   *denseLayer
	r     *rng.Source
}

// CNNConfig configures the convolutional classifier.
type CNNConfig struct {
	// Channels is the input channel count (monitored HPC events).
	Channels int
	// Length is the input time-series length (trace ticks).
	Length int
	// Classes is the output class count.
	Classes int
	// Filters1 and Filters2 are the conv layer widths.
	Filters1 int
	Filters2 int
	// Kernel is the convolution width; Stride its step.
	Kernel int
	Stride int
	// Hidden is the FC hidden width.
	Hidden int
	// LR, Momentum and GradClip control SGD.
	LR       float64
	Momentum float64
	GradClip float64
	// Dropout is applied to the FC hidden activations during training.
	Dropout float64
	Seed    float64
}

// DefaultCNNConfig returns the evaluation defaults.
func DefaultCNNConfig(channels, length, classes int) CNNConfig {
	return CNNConfig{
		Channels: channels,
		Length:   length,
		Classes:  classes,
		Filters1: 8,
		Filters2: 16,
		Kernel:   5,
		Stride:   2,
		Hidden:   32,
		LR:       0.02,
		Momentum: 0.5,
		GradClip: 2,
		Dropout:  0.1,
		Seed:     1,
	}
}

// convLayer is a 1-D convolution: out[f][t] = b[f] + Σ_c Σ_k w[f][c][k] ·
// in[c][t·stride+k].
type convLayer struct {
	inCh, outCh, kernel, stride int
	w                           []float64 // outCh × inCh × kernel
	b                           []float64
	vw                          []float64
	vb                          []float64
}

func newConvLayer(inCh, outCh, kernel, stride int, r *rng.Source) *convLayer {
	l := &convLayer{
		inCh: inCh, outCh: outCh, kernel: kernel, stride: stride,
		w:  make([]float64, outCh*inCh*kernel),
		b:  make([]float64, outCh),
		vw: make([]float64, outCh*inCh*kernel),
		vb: make([]float64, outCh),
	}
	limit := math.Sqrt(6.0 / float64(inCh*kernel+outCh))
	for i := range l.w {
		l.w[i] = (2*r.Float64() - 1) * limit
	}
	return l
}

func (l *convLayer) wIdx(f, c, k int) int { return (f*l.inCh+c)*l.kernel + k }

// outLen returns the output length for an input of length n.
func (l *convLayer) outLen(n int) int {
	if n < l.kernel {
		return 0
	}
	return (n-l.kernel)/l.stride + 1
}

// forward computes the pre-activation output (outCh × outLen).
func (l *convLayer) forward(in [][]float64) [][]float64 {
	n := len(in[0])
	outN := l.outLen(n)
	out := make([][]float64, l.outCh)
	for f := 0; f < l.outCh; f++ {
		row := make([]float64, outN)
		for t := 0; t < outN; t++ {
			s := l.b[f]
			base := t * l.stride
			for c := 0; c < l.inCh; c++ {
				inC := in[c]
				for k := 0; k < l.kernel; k++ {
					s += l.w[l.wIdx(f, c, k)] * inC[base+k]
				}
			}
			row[t] = s
		}
		out[f] = row
	}
	return out
}

// backward accumulates parameter gradients into gw/gb and returns the
// gradient with respect to the input. dOut is the gradient wrt the
// pre-activation output.
func (l *convLayer) backward(in, dOut [][]float64, gw, gb []float64) [][]float64 {
	n := len(in[0])
	dIn := make([][]float64, l.inCh)
	for c := range dIn {
		dIn[c] = make([]float64, n)
	}
	for f := 0; f < l.outCh; f++ {
		dRow := dOut[f]
		for t := range dRow {
			d := dRow[t]
			if d == 0 {
				continue
			}
			gb[f] += d
			base := t * l.stride
			for c := 0; c < l.inCh; c++ {
				inC := in[c]
				dC := dIn[c]
				for k := 0; k < l.kernel; k++ {
					gw[l.wIdx(f, c, k)] += d * inC[base+k]
					dC[base+k] += d * l.w[l.wIdx(f, c, k)]
				}
			}
		}
	}
	return dIn
}

func (l *convLayer) apply(gw, gb []float64, lr, momentum float64) {
	for i := range l.w {
		l.vw[i] = momentum*l.vw[i] - lr*gw[i]
		l.w[i] += l.vw[i]
	}
	for i := range l.b {
		l.vb[i] = momentum*l.vb[i] - lr*gb[i]
		l.b[i] += l.vb[i]
	}
}

// denseLayer is a fully connected layer.
type denseLayer struct {
	in, out int
	w       *matrix
	b       []float64
	vw      *matrix
	vb      []float64
}

func newDenseLayer(in, out int, r *rng.Source) *denseLayer {
	l := &denseLayer{
		in: in, out: out,
		w:  newMatrix(out, in),
		b:  make([]float64, out),
		vw: newMatrix(out, in),
		vb: make([]float64, out),
	}
	l.w.glorotInit(r)
	return l
}

func (l *denseLayer) forward(x []float64) []float64 {
	return matVec(l.w, x, l.b)
}

// backward accumulates gradients and returns dIn.
func (l *denseLayer) backward(x, dOut []float64, gw *matrix, gb []float64) []float64 {
	outerAcc(gw, dOut, x)
	addInPlace(gb, dOut)
	return matVecT(l.w, dOut)
}

func (l *denseLayer) apply(gw *matrix, gb []float64, lr, momentum float64) {
	for i := range l.w.data {
		l.vw.data[i] = momentum*l.vw.data[i] - lr*gw.data[i]
		l.w.data[i] += l.vw.data[i]
	}
	for i := range l.b {
		l.vb[i] = momentum*l.vb[i] - lr*gb[i]
		l.b[i] += l.vb[i]
	}
}

// NewCNN1D builds the network.
func NewCNN1D(cfg CNNConfig) (*CNN1D, error) {
	if cfg.Channels < 1 || cfg.Length < 1 || cfg.Classes < 1 {
		return nil, fmt.Errorf("ml: invalid CNN config %+v", cfg)
	}
	if cfg.Kernel < 1 {
		cfg.Kernel = 5
	}
	if cfg.Stride < 1 {
		cfg.Stride = 2
	}
	if cfg.Filters1 < 1 {
		cfg.Filters1 = 8
	}
	if cfg.Filters2 < 1 {
		cfg.Filters2 = 16
	}
	if cfg.Hidden < 1 {
		cfg.Hidden = 32
	}
	if cfg.LR <= 0 {
		cfg.LR = 0.02
	}
	if cfg.GradClip <= 0 {
		cfg.GradClip = 2
	}
	r := rng.New(uint64(cfg.Seed)).Split("cnn")
	c := &CNN1D{cfg: cfg, r: r}
	c.conv1 = newConvLayer(cfg.Channels, cfg.Filters1, cfg.Kernel, cfg.Stride, r)
	n1 := c.conv1.outLen(cfg.Length)
	if n1 < cfg.Kernel {
		return nil, fmt.Errorf("ml: input length %d too short for two conv layers", cfg.Length)
	}
	c.conv2 = newConvLayer(cfg.Filters1, cfg.Filters2, cfg.Kernel, cfg.Stride, r)
	if c.conv2.outLen(n1) < 1 {
		return nil, fmt.Errorf("ml: input length %d too short after first conv", cfg.Length)
	}
	c.fc1 = newDenseLayer(cfg.Filters2, cfg.Hidden, r)
	c.fc2 = newDenseLayer(cfg.Hidden, cfg.Classes, r)
	return c, nil
}

// cnnTrace stores the forward pass for backprop.
type cnnTrace struct {
	in     [][]float64
	z1, a1 [][]float64 // conv1 pre/post ReLU
	z2, a2 [][]float64 // conv2 pre/post ReLU
	pooled []float64   // global average pooled per filter
	h1pre  []float64
	h1     []float64
	mask   []bool
	logits []float64
}

func reluSeq(rows [][]float64) [][]float64 {
	out := make([][]float64, len(rows))
	for i, row := range rows {
		o := make([]float64, len(row))
		for j, v := range row {
			if v > 0 {
				o[j] = v
			}
		}
		out[i] = o
	}
	return out
}

// forward runs the network; train enables dropout.
func (c *CNN1D) forward(x [][]float64, train bool) (*cnnTrace, error) {
	if len(x) != c.cfg.Channels {
		return nil, fmt.Errorf("%w: got %d channels, want %d", ErrShapeMismatch, len(x), c.cfg.Channels)
	}
	for ch, row := range x {
		if len(row) != c.cfg.Length {
			return nil, fmt.Errorf("%w: channel %d has %d ticks, want %d",
				ErrShapeMismatch, ch, len(row), c.cfg.Length)
		}
	}
	tr := &cnnTrace{in: x}
	tr.z1 = c.conv1.forward(x)
	tr.a1 = reluSeq(tr.z1)
	tr.z2 = c.conv2.forward(tr.a1)
	tr.a2 = reluSeq(tr.z2)

	tr.pooled = make([]float64, c.cfg.Filters2)
	for f, row := range tr.a2 {
		var s float64
		for _, v := range row {
			s += v
		}
		tr.pooled[f] = s / float64(len(row))
	}

	tr.h1pre = c.fc1.forward(tr.pooled)
	tr.h1 = make([]float64, len(tr.h1pre))
	for i, v := range tr.h1pre {
		if v > 0 {
			tr.h1[i] = v
		}
	}
	if train && c.cfg.Dropout > 0 {
		tr.mask = make([]bool, len(tr.h1))
		keep := 1 - c.cfg.Dropout
		for i := range tr.h1 {
			if c.r.Float64() < keep {
				tr.mask[i] = true
				tr.h1[i] /= keep
			} else {
				tr.h1[i] = 0
			}
		}
	}
	tr.logits = c.fc2.forward(tr.h1)
	return tr, nil
}

// Predict returns the argmax class for a channels×length input.
func (c *CNN1D) Predict(x [][]float64) (int, error) {
	tr, err := c.forward(x, false)
	if err != nil {
		return 0, err
	}
	return Argmax(tr.logits), nil
}

// step runs one SGD step and returns loss and correctness.
func (c *CNN1D) step(x [][]float64, y int) (float64, bool, error) {
	tr, err := c.forward(x, true)
	if err != nil {
		return 0, false, err
	}
	probs := Softmax(tr.logits)
	loss := -math.Log(math.Max(probs[y], 1e-12))
	correct := Argmax(tr.logits) == y

	dLogits := make([]float64, len(probs))
	copy(dLogits, probs)
	dLogits[y]--

	// FC gradients.
	gw2 := newMatrix(c.fc2.out, c.fc2.in)
	gb2 := make([]float64, c.fc2.out)
	dH1 := c.fc2.backward(tr.h1, dLogits, gw2, gb2)
	for i := range dH1 {
		if tr.h1pre[i] <= 0 {
			dH1[i] = 0
		}
		if tr.mask != nil && !tr.mask[i] {
			dH1[i] = 0
		}
	}
	gw1 := newMatrix(c.fc1.out, c.fc1.in)
	gb1 := make([]float64, c.fc1.out)
	dPooled := c.fc1.backward(tr.pooled, dH1, gw1, gb1)

	// Through global average pooling into conv2's activations.
	dA2 := make([][]float64, c.cfg.Filters2)
	for f := range dA2 {
		n := len(tr.a2[f])
		row := make([]float64, n)
		g := dPooled[f] / float64(n)
		for t := 0; t < n; t++ {
			if tr.z2[f][t] > 0 {
				row[t] = g
			}
		}
		dA2[f] = row
	}
	gwc2 := make([]float64, len(c.conv2.w))
	gbc2 := make([]float64, len(c.conv2.b))
	dA1 := c.conv2.backward(tr.a1, dA2, gwc2, gbc2)
	for f := range dA1 {
		for t := range dA1[f] {
			if tr.z1[f][t] <= 0 {
				dA1[f][t] = 0
			}
		}
	}
	gwc1 := make([]float64, len(c.conv1.w))
	gbc1 := make([]float64, len(c.conv1.b))
	c.conv1.backward(tr.in, dA1, gwc1, gbc1)

	// Global norm clipping.
	var norm float64
	for _, g := range [][]float64{gwc1, gbc1, gwc2, gbc2, gb1, gb2} {
		norm += vecSqNorm(g)
	}
	norm += matSqNorm(gw1) + matSqNorm(gw2)
	norm = math.Sqrt(norm)
	lr := c.cfg.LR
	if norm > c.cfg.GradClip {
		lr *= c.cfg.GradClip / norm
	}
	c.conv1.apply(gwc1, gbc1, lr, c.cfg.Momentum)
	c.conv2.apply(gwc2, gbc2, lr, c.cfg.Momentum)
	c.fc1.apply(gw1, gb1, lr, c.cfg.Momentum)
	c.fc2.apply(gw2, gb2, lr, c.cfg.Momentum)
	return loss, correct, nil
}

// Evaluate returns mean loss and accuracy over a labelled set of
// channels×length inputs.
func (c *CNN1D) Evaluate(xs [][][]float64, ys []int) (loss, acc float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrNoTrainingData
	}
	if len(xs) != len(ys) {
		return 0, 0, fmt.Errorf("%w: %d samples, %d labels", ErrShapeMismatch, len(xs), len(ys))
	}
	var sumLoss float64
	correct := 0
	for i, x := range xs {
		tr, err := c.forward(x, false)
		if err != nil {
			return 0, 0, err
		}
		probs := Softmax(tr.logits)
		sumLoss += -math.Log(math.Max(probs[ys[i]], 1e-12))
		if Argmax(probs) == ys[i] {
			correct++
		}
	}
	n := float64(len(xs))
	return sumLoss / n, float64(correct) / n, nil
}

// Train runs epochs of shuffled SGD over channels×length inputs and
// returns per-epoch statistics.
func (c *CNN1D) Train(xs [][][]float64, ys []int, epochs int, valXs [][][]float64, valYs []int) ([]EpochStats, error) {
	if len(xs) == 0 {
		return nil, ErrNoTrainingData
	}
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("%w: %d samples, %d labels", ErrShapeMismatch, len(xs), len(ys))
	}
	order := make([]int, len(xs))
	for i := range order {
		order[i] = i
	}
	stats := make([]EpochStats, 0, epochs)
	for ep := 0; ep < epochs; ep++ {
		c.r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var sumLoss float64
		correct := 0
		for _, idx := range order {
			loss, ok, err := c.step(xs[idx], ys[idx])
			if err != nil {
				return nil, err
			}
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
			vl, va, err := c.Evaluate(valXs, valYs)
			if err != nil {
				return nil, err
			}
			st.ValLoss, st.ValAcc = vl, va
		}
		stats = append(stats, st)
	}
	return stats, nil
}
