package ml

import (
	"errors"
	"math"
	"testing"

	"github.com/repro/aegis/internal/rng"
)

// blobs generates an easily separable n-class dataset.
func blobs(r *rng.Source, classes, perClass, dim int, sep float64) (xs [][]float64, ys []int) {
	for c := 0; c < classes; c++ {
		center := make([]float64, dim)
		for j := range center {
			center[j] = r.Gaussian(0, sep)
		}
		for i := 0; i < perClass; i++ {
			x := make([]float64, dim)
			for j := range x {
				x[j] = center[j] + r.Gaussian(0, 1)
			}
			xs = append(xs, x)
			ys = append(ys, c)
		}
	}
	return xs, ys
}

func TestMLPLearnsBlobs(t *testing.T) {
	r := rng.New(1)
	xs, ys := blobs(r, 5, 40, 10, 6)
	vx, vy := blobs(r, 5, 0, 10, 6) // empty val: exercise nil path
	_ = vx
	_ = vy

	cfg := DefaultMLPConfig(10, 5)
	m, err := NewMLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := m.Train(xs, ys, 20, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	final := stats[len(stats)-1]
	if final.TrainAcc < 0.9 {
		t.Errorf("final train accuracy = %v, want > 0.9", final.TrainAcc)
	}
	if final.TrainLoss >= stats[0].TrainLoss {
		t.Errorf("loss did not decrease: %v -> %v", stats[0].TrainLoss, final.TrainLoss)
	}
}

func TestMLPGeneralises(t *testing.T) {
	r := rng.New(2)
	allX, allY := blobs(r, 4, 70, 8, 8)
	// Per-class contiguous blocks: first 50 of each class train, rest val.
	var xs, valXs [][]float64
	var ys, valYs []int
	for c := 0; c < 4; c++ {
		base := c * 70
		xs = append(xs, allX[base:base+50]...)
		ys = append(ys, allY[base:base+50]...)
		valXs = append(valXs, allX[base+50:base+70]...)
		valYs = append(valYs, allY[base+50:base+70]...)
	}

	m, err := NewMLP(DefaultMLPConfig(8, 4))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := m.Train(xs, ys, 15, valXs, valYs)
	if err != nil {
		t.Fatal(err)
	}
	if stats[len(stats)-1].ValAcc < 0.85 {
		t.Errorf("val accuracy = %v, want > 0.85", stats[len(stats)-1].ValAcc)
	}
}

func TestMLPPredict(t *testing.T) {
	r := rng.New(3)
	xs, ys := blobs(r, 3, 30, 6, 7)
	m, err := NewMLP(DefaultMLPConfig(6, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Train(xs, ys, 15, nil, nil); err != nil {
		t.Fatal(err)
	}
	c, err := m.Predict(xs[0])
	if err != nil {
		t.Fatal(err)
	}
	if c < 0 || c >= 3 {
		t.Errorf("predicted class %d outside [0, 3)", c)
	}
	if _, err := m.Predict(make([]float64, 3)); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("wrong-shape predict error = %v", err)
	}
}

func TestMLPConfigValidation(t *testing.T) {
	if _, err := NewMLP(MLPConfig{Layers: []int{5}}); err == nil {
		t.Error("single layer accepted")
	}
	if _, err := NewMLP(MLPConfig{Layers: []int{5, 0}}); err == nil {
		t.Error("zero-width layer accepted")
	}
}

func TestMLPTrainErrors(t *testing.T) {
	m, err := NewMLP(DefaultMLPConfig(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Train(nil, nil, 1, nil, nil); !errors.Is(err, ErrNoTrainingData) {
		t.Errorf("empty train error = %v", err)
	}
	if _, err := m.Train([][]float64{{1, 2, 3, 4}}, []int{0, 1}, 1, nil, nil); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("mismatched labels error = %v", err)
	}
	if _, err := m.Train([][]float64{{1}}, []int{0}, 1, nil, nil); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("wrong feature dim error = %v", err)
	}
}

func TestMLPDeterministicTraining(t *testing.T) {
	r := rng.New(4)
	xs, ys := blobs(r, 3, 20, 5, 6)
	train := func() float64 {
		m, err := NewMLP(DefaultMLPConfig(5, 3))
		if err != nil {
			t.Fatal(err)
		}
		stats, err := m.Train(xs, ys, 5, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return stats[len(stats)-1].TrainLoss
	}
	if train() != train() {
		t.Error("identical configs trained to different losses")
	}
}

func TestSoftmax(t *testing.T) {
	p := Softmax([]float64{1, 2, 3})
	if Argmax(p) != 2 {
		t.Error("softmax argmax wrong")
	}
	var sum float64
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("softmax sum = %v", sum)
	}
	// Large logits must not overflow.
	p = Softmax([]float64{1000, 1000})
	if math.IsNaN(p[0]) || math.Abs(p[0]-0.5) > 1e-9 {
		t.Errorf("softmax overflow: %v", p)
	}
}

func TestLogSoftmaxConsistent(t *testing.T) {
	logits := []float64{0.5, -1, 2, 0}
	ls := LogSoftmax(logits)
	p := Softmax(logits)
	for i := range p {
		if math.Abs(math.Exp(ls[i])-p[i]) > 1e-12 {
			t.Errorf("exp(logsoftmax) != softmax at %d", i)
		}
	}
}

func TestArgmax(t *testing.T) {
	if Argmax(nil) != -1 {
		t.Error("empty argmax != -1")
	}
	if Argmax([]float64{3, 1, 2}) != 0 {
		t.Error("argmax wrong")
	}
}

func TestEditDistance(t *testing.T) {
	for _, tc := range []struct {
		a, b []int
		want int
	}{
		{nil, nil, 0},
		{[]int{1, 2, 3}, []int{1, 2, 3}, 0},
		{[]int{1, 2, 3}, []int{1, 3}, 1},
		{[]int{1, 2, 3}, []int{4, 5, 6}, 3},
		{nil, []int{1, 2}, 2},
		{[]int{1, 2}, nil, 2},
		{[]int{1, 2, 3, 4}, []int{2, 3, 4, 5}, 2},
	} {
		if got := EditDistance(tc.a, tc.b); got != tc.want {
			t.Errorf("EditDistance(%v,%v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestSequenceAccuracy(t *testing.T) {
	if a := SequenceAccuracy([]int{1, 2, 3}, []int{1, 2, 3}); a != 1 {
		t.Errorf("perfect sequence accuracy = %v", a)
	}
	if a := SequenceAccuracy(nil, []int{1, 2}); a != 0 {
		t.Errorf("empty prediction accuracy = %v", a)
	}
	if a := SequenceAccuracy(nil, nil); a != 1 {
		t.Errorf("both empty accuracy = %v", a)
	}
	long := make([]int, 100)
	if a := SequenceAccuracy(long, []int{9}); a != 0 {
		t.Errorf("clamped accuracy = %v", a)
	}
}
