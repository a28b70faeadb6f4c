package ml

import (
	"math"
	"testing"

	"github.com/repro/aegis/internal/rng"
)

// ctcLoss returns just the negative log-likelihood of ctcLossGrad.
func ctcLoss(logits [][]float64, label []int, classes int) (float64, error) {
	loss, _, err := ctcLossGrad(logits, label, classes)
	return loss, err
}

// logitsFor builds logits strongly favouring the given internal symbol path.
func logitsFor(path []int, classes int) [][]float64 {
	out := make([][]float64, len(path))
	for t, sym := range path {
		row := make([]float64, classes+1)
		for k := range row {
			row[k] = -5
		}
		row[sym] = 5
		out[t] = row
	}
	return out
}

func TestGreedyCTCDecode(t *testing.T) {
	// Internal path: blank, a, a, blank, b -> external [a-1, b-1].
	logits := logitsFor([]int{0, 1, 1, 0, 2}, 3)
	got := GreedyCTCDecode(logits)
	want := []int{0, 1}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("decode = %v, want %v", got, want)
	}
}

func TestGreedyCTCCollapsesWithoutBlank(t *testing.T) {
	logits := logitsFor([]int{1, 1, 1}, 2)
	got := GreedyCTCDecode(logits)
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("decode = %v, want [0]", got)
	}
}

func TestGreedyCTCRepeatsWithBlank(t *testing.T) {
	logits := logitsFor([]int{1, 0, 1}, 2)
	got := GreedyCTCDecode(logits)
	if len(got) != 2 || got[0] != 0 || got[1] != 0 {
		t.Errorf("decode = %v, want [0 0]", got)
	}
}

func TestCTCLossLowForMatchingPath(t *testing.T) {
	classes := 3
	matching := logitsFor([]int{1, 0, 2}, classes) // external [0, 1]
	lossGood, err := ctcLoss(matching, []int{0, 1}, classes)
	if err != nil {
		t.Fatal(err)
	}
	lossBad, err := ctcLoss(matching, []int{2, 2}, classes)
	if err != nil {
		t.Fatal(err)
	}
	if lossGood >= lossBad {
		t.Errorf("matching loss %v >= mismatching loss %v", lossGood, lossBad)
	}
	if lossGood > 0.5 {
		t.Errorf("matching loss = %v, want small", lossGood)
	}
}

func TestCTCLossErrors(t *testing.T) {
	if _, err := ctcLoss(nil, []int{0}, 2); err == nil {
		t.Error("empty logits accepted")
	}
	logits := logitsFor([]int{1}, 2)
	if _, err := ctcLoss(logits, []int{0, 1}, 2); err == nil {
		t.Error("label longer than sequence accepted")
	}
	if _, err := ctcLoss(logits, []int{7}, 2); err == nil {
		t.Error("out-of-range label accepted")
	}
}

func TestCTCGradientNumerical(t *testing.T) {
	// Finite-difference check of the CTC gradient on a small random case.
	r := rng.New(7)
	T, classes := 6, 3
	logits := make([][]float64, T)
	for t := range logits {
		row := make([]float64, classes+1)
		for k := range row {
			row[k] = r.Gaussian(0, 1)
		}
		logits[t] = row
	}
	label := []int{0, 2, 1}
	_, grad, err := ctcLossGrad(logits, label, classes)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1e-6
	for _, probe := range []struct{ t, k int }{{0, 0}, {2, 1}, {3, 3}, {5, 2}} {
		orig := logits[probe.t][probe.k]
		logits[probe.t][probe.k] = orig + eps
		lp, err := ctcLoss(logits, label, classes)
		if err != nil {
			t.Fatal(err)
		}
		logits[probe.t][probe.k] = orig - eps
		lm, err := ctcLoss(logits, label, classes)
		if err != nil {
			t.Fatal(err)
		}
		logits[probe.t][probe.k] = orig
		numeric := (lp - lm) / (2 * eps)
		analytic := grad[probe.t][probe.k]
		if math.Abs(numeric-analytic) > 1e-4 {
			t.Errorf("grad[%d][%d]: numeric %v vs analytic %v", probe.t, probe.k, numeric, analytic)
		}
	}
}

func TestBeamCTCDecodeMatchesGreedyOnPeakedLogits(t *testing.T) {
	logits := logitsFor([]int{0, 1, 0, 2, 2, 0, 3}, 3)
	greedy := GreedyCTCDecode(logits)
	beam := BeamCTCDecode(logits, 4)
	if len(greedy) != len(beam) {
		t.Fatalf("greedy %v vs beam %v", greedy, beam)
	}
	for i := range greedy {
		if greedy[i] != beam[i] {
			t.Fatalf("greedy %v vs beam %v", greedy, beam)
		}
	}
}

func TestBeamCTCDecodeWidthOneIsGreedy(t *testing.T) {
	logits := logitsFor([]int{1, 0, 2}, 2)
	a := BeamCTCDecode(logits, 1)
	b := GreedyCTCDecode(logits)
	if len(a) != len(b) {
		t.Fatalf("width-1 beam %v != greedy %v", a, b)
	}
}

func TestBeamCTCBeatsGreedyOnAmbiguousCase(t *testing.T) {
	// Classic case where best-path (greedy) and best-labelling differ:
	// two timesteps where blank is the argmax each step, but the summed
	// probability of label "a" across alignments exceeds the blank path.
	// P(blank)=0.4, P(a)=0.6 split would make a trivially win; use
	// per-step argmax blank: p = [0.5, 0.4, 0.1] over [blank, a, b].
	row := []float64{math.Log(0.5), math.Log(0.4), math.Log(0.1)}
	logits := [][]float64{row, row}
	greedy := GreedyCTCDecode(logits)
	if len(greedy) != 0 {
		t.Fatalf("greedy = %v, want empty (blank argmax)", greedy)
	}
	beam := BeamCTCDecode(logits, 8)
	// P(empty) = 0.25; P("a") = 0.4*0.4 + 0.4*0.5 + 0.5*0.4 = 0.56.
	if len(beam) != 1 || beam[0] != 0 {
		t.Errorf("beam = %v, want [0]", beam)
	}
}

func TestBiGRULearnsSimpleSequences(t *testing.T) {
	// Two sequence classes with distinct segment signatures; the GRU+CTC
	// must learn to transcribe segment order.
	r := rng.New(11)
	classes := 2
	mk := func(label []int) ([][]float64, []int) {
		var xs [][]float64
		for _, sym := range label {
			for i := 0; i < 4; i++ {
				row := make([]float64, 3)
				row[sym] = 1 + r.Gaussian(0, 0.1)
				row[2] = r.Gaussian(0, 0.1)
				xs = append(xs, row)
			}
		}
		return xs, label
	}
	labels := [][]int{{0, 1}, {1, 0}, {0, 0}, {1, 1}, {0, 1, 0}, {1, 0, 1}}
	cfg := DefaultGRUConfig(3, classes)
	cfg.Hidden = 12
	cfg.LR = 0.05
	m, err := NewBiGRUCTC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var lastLoss float64
	for epoch := 0; epoch < 150; epoch++ {
		lastLoss = 0
		for _, lab := range labels {
			xs, y := mk(lab)
			loss, err := m.TrainStep(xs, y)
			if err != nil {
				t.Fatal(err)
			}
			lastLoss += loss
		}
	}
	if math.IsNaN(lastLoss) {
		t.Fatal("training diverged to NaN")
	}
	correct := 0
	for _, lab := range labels {
		xs, y := mk(lab)
		pred, err := m.DecodeBeam(xs, 1)
		if err != nil {
			t.Fatal(err)
		}
		if SequenceAccuracy(pred, y) >= 0.99 {
			correct++
		}
	}
	if correct < len(labels)-1 {
		t.Errorf("GRU decoded %d/%d training sequences correctly", correct, len(labels))
	}
}

func TestBiGRUConfigValidation(t *testing.T) {
	if _, err := NewBiGRUCTC(GRUConfig{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestBiGRUShapeErrors(t *testing.T) {
	m, err := NewBiGRUCTC(DefaultGRUConfig(4, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Logits(nil); err == nil {
		t.Error("empty sequence accepted")
	}
	if _, err := m.Logits([][]float64{{1, 2}}); err == nil {
		t.Error("wrong input dim accepted")
	}
}

func TestBiGRUDecodeBeam(t *testing.T) {
	m, err := NewBiGRUCTC(DefaultGRUConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	xs := [][]float64{{1, 0}, {0, 1}, {1, 0}}
	if _, err := m.DecodeBeam(xs, 4); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCTCLoss(b *testing.B) {
	r := rng.New(10)
	const T, classes = 80, 7
	logits := make([][]float64, T)
	for t := range logits {
		row := make([]float64, classes+1)
		for j := range row {
			row[j] = r.Gaussian(0, 1)
		}
		logits[t] = row
	}
	label := []int{0, 1, 2, 3, 4, 5, 6, 0, 1, 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctcLoss(logits, label, classes); err != nil {
			b.Fatal(err)
		}
	}
}
