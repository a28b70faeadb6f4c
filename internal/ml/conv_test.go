package ml

import (
	"errors"
	"math"
	"testing"

	"github.com/repro/aegis/internal/rng"
)

// seqBlobs builds channels×length series whose class determines where a
// bump appears in the series — the translation-variant version separable
// only with positional features, and a translation-invariant variant
// where the class determines the bump count.
func seqBlobs(r *rng.Source, classes, perClass, channels, length int) (xs [][][]float64, ys []int) {
	for c := 0; c < classes; c++ {
		for i := 0; i < perClass; i++ {
			x := make([][]float64, channels)
			for ch := range x {
				row := make([]float64, length)
				for t := range row {
					row[t] = r.Gaussian(0, 0.3)
				}
				x[ch] = row
			}
			// Class c gets c+1 bumps at random positions on channel 0.
			for b := 0; b <= c; b++ {
				pos := r.Intn(length)
				x[0][pos] += 5
			}
			xs = append(xs, x)
			ys = append(ys, c)
		}
	}
	return xs, ys
}

func TestCNNLearnsBumpCounting(t *testing.T) {
	r := rng.New(1)
	const classes, perClass, channels, length = 3, 30, 2, 40
	xs, ys := seqBlobs(r, classes, perClass, channels, length)
	valX, valY := seqBlobs(r, classes, 10, channels, length)

	cfg := DefaultCNNConfig(channels, length, classes)
	cfg.LR = 0.03
	cnn, err := NewCNN1D(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := cnn.Train(xs, ys, 30, valX, valY)
	if err != nil {
		t.Fatal(err)
	}
	final := stats[len(stats)-1]
	if math.IsNaN(final.TrainLoss) {
		t.Fatal("training diverged")
	}
	// Counting translated bumps is exactly what convolution+global
	// pooling does well; random guess is 1/3.
	if final.ValAcc < 0.7 {
		t.Errorf("val accuracy = %v, want > 0.7", final.ValAcc)
	}
	if final.TrainLoss >= stats[0].TrainLoss {
		t.Errorf("loss did not decrease: %v -> %v", stats[0].TrainLoss, final.TrainLoss)
	}
}

func TestCNNTranslationInvariance(t *testing.T) {
	// A trained CNN must classify the same pattern shifted in time
	// identically most of the time.
	r := rng.New(2)
	const classes, channels, length = 2, 1, 32
	mk := func(class, pos int) [][]float64 {
		x := [][]float64{make([]float64, length)}
		for t := range x[0] {
			x[0][t] = r.Gaussian(0, 0.1)
		}
		// class 0: single bump; class 1: double bump.
		x[0][pos] += 4
		if class == 1 {
			x[0][(pos+8)%length] += 4
		}
		return x
	}
	var xs [][][]float64
	var ys []int
	for i := 0; i < 60; i++ {
		c := i % classes
		xs = append(xs, mk(c, r.Intn(length)))
		ys = append(ys, c)
	}
	cnn, err := NewCNN1D(DefaultCNNConfig(channels, length, classes))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cnn.Train(xs, ys, 40, nil, nil); err != nil {
		t.Fatal(err)
	}
	agree := 0
	const trials = 30
	for i := 0; i < trials; i++ {
		c := i % classes
		p1, err := cnn.Predict(mk(c, 3))
		if err != nil {
			t.Fatal(err)
		}
		p2, err := cnn.Predict(mk(c, 20))
		if err != nil {
			t.Fatal(err)
		}
		if p1 == p2 {
			agree++
		}
	}
	if agree < trials*2/3 {
		t.Errorf("shifted inputs agreed only %d/%d times", agree, trials)
	}
}

func TestCNNConfigValidation(t *testing.T) {
	if _, err := NewCNN1D(CNNConfig{}); err == nil {
		t.Error("zero config accepted")
	}
	cfg := DefaultCNNConfig(2, 6, 3) // too short for two convs at stride 2
	if _, err := NewCNN1D(cfg); err == nil {
		t.Error("too-short input accepted")
	}
}

func TestCNNShapeErrors(t *testing.T) {
	cnn, err := NewCNN1D(DefaultCNNConfig(2, 40, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cnn.Predict([][]float64{make([]float64, 40)}); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("wrong channels error = %v", err)
	}
	if _, err := cnn.Predict([][]float64{make([]float64, 10), make([]float64, 10)}); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("wrong length error = %v", err)
	}
	if _, _, err := cnn.Evaluate(nil, nil); !errors.Is(err, ErrNoTrainingData) {
		t.Errorf("empty eval error = %v", err)
	}
	if _, err := cnn.Train(nil, nil, 1, nil, nil); !errors.Is(err, ErrNoTrainingData) {
		t.Errorf("empty train error = %v", err)
	}
}

func TestConvLayerOutputLength(t *testing.T) {
	l := newConvLayer(1, 1, 5, 2, rng.New(1))
	for _, tc := range []struct{ in, want int }{
		{5, 1}, {6, 1}, {7, 2}, {9, 3}, {4, 0},
	} {
		if got := l.outLen(tc.in); got != tc.want {
			t.Errorf("outLen(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestConvGradientNumerical(t *testing.T) {
	// Finite-difference check of the conv layer gradient through a tiny
	// network loss = sum(forward(x)).
	r := rng.New(5)
	l := newConvLayer(2, 2, 3, 1, r)
	in := [][]float64{
		{0.5, -0.2, 0.3, 0.8, -0.1},
		{-0.4, 0.1, 0.9, -0.6, 0.2},
	}
	lossOf := func() float64 {
		out := l.forward(in)
		var s float64
		for _, row := range out {
			for _, v := range row {
				s += v
			}
		}
		return s
	}
	// Analytic gradient: dOut = all ones.
	out := l.forward(in)
	dOut := make([][]float64, len(out))
	for f := range dOut {
		dOut[f] = make([]float64, len(out[f]))
		for t := range dOut[f] {
			dOut[f][t] = 1
		}
	}
	gw := make([]float64, len(l.w))
	gb := make([]float64, len(l.b))
	dIn := l.backward(in, dOut, gw, gb)

	const eps = 1e-6
	// Probe a few weights.
	for _, wi := range []int{0, 3, 7, len(l.w) - 1} {
		orig := l.w[wi]
		l.w[wi] = orig + eps
		lp := lossOf()
		l.w[wi] = orig - eps
		lm := lossOf()
		l.w[wi] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-gw[wi]) > 1e-5 {
			t.Errorf("w[%d] grad: numeric %v vs analytic %v", wi, numeric, gw[wi])
		}
	}
	// Probe an input element.
	orig := in[1][2]
	in[1][2] = orig + eps
	lp := lossOf()
	in[1][2] = orig - eps
	lm := lossOf()
	in[1][2] = orig
	numeric := (lp - lm) / (2 * eps)
	if math.Abs(numeric-dIn[1][2]) > 1e-5 {
		t.Errorf("dIn[1][2]: numeric %v vs analytic %v", numeric, dIn[1][2])
	}
}
