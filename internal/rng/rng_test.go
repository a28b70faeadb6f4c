package rng

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestSplitOrderIndependence(t *testing.T) {
	p1 := New(7)
	p2 := New(7)

	a1 := p1.Split("a")
	_ = p2.Split("b")
	a2 := p2.Split("a")

	for i := 0; i < 100; i++ {
		if a1.Uint64() != a2.Uint64() {
			t.Fatalf("split %q depends on sibling split order", "a")
		}
	}
}

func TestNewStreamMatchesSplitChain(t *testing.T) {
	a := NewStream(42, "fuzzer", "event/X", "bench")
	b := New(42).Split("fuzzer").Split("event/X").Split("bench")
	for i := 0; i < 200; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("NewStream diverged from Split chain at step %d", i)
		}
	}
}

func TestNewStreamOrderInsensitive(t *testing.T) {
	// Deriving sibling streams in any order, from any goroutine, yields the
	// same values: the derivation is a pure function of (seed, labels).
	want := make([]uint64, 8)
	for i := range want {
		want[i] = NewStream(7, "rank", fmt.Sprintf("shard-%d", i)).Uint64()
	}
	// Reverse derivation order.
	for i := len(want) - 1; i >= 0; i-- {
		if got := NewStream(7, "rank", fmt.Sprintf("shard-%d", i)).Uint64(); got != want[i] {
			t.Fatalf("shard %d changed when derived in reverse order", i)
		}
	}
	// Concurrent derivation from racing goroutines.
	var wg sync.WaitGroup
	got := make([]uint64, len(want))
	for i := range want {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = NewStream(7, "rank", fmt.Sprintf("shard-%d", i)).Uint64()
		}(i)
	}
	wg.Wait()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("shard %d changed when derived concurrently", i)
		}
	}
}

func TestNewStreamIndependentStreams(t *testing.T) {
	a := NewStream(5, "pipeline", "worker-0")
	b := NewStream(5, "pipeline", "worker-1")
	matches := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			matches++
		}
	}
	if matches > 0 {
		t.Fatalf("sibling worker streams collided %d times", matches)
	}
	if NewStream(11).Uint64() != New(11).Uint64() {
		t.Fatal("NewStream with no labels is not New")
	}
}

func TestSplitNOrderInsensitive(t *testing.T) {
	p := New(21)
	first := p.SplitN("shard", 3).Uint64()
	_ = p.SplitN("shard", 9).Uint64()
	_ = p.Split("other").Uint64()
	if got := p.SplitN("shard", 3).Uint64(); got != first {
		t.Fatal("SplitN depends on sibling derivation order")
	}
}

func TestSplitIndependence(t *testing.T) {
	p := New(99)
	a := p.Split("cache")
	b := p.Split("branch")
	matches := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			matches++
		}
	}
	if matches > 0 {
		t.Fatalf("child streams collided %d times", matches)
	}
}

func TestSplitNDistinct(t *testing.T) {
	p := New(3)
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		v := p.SplitN("site", i).Uint64()
		if seen[v] {
			t.Fatalf("SplitN stream %d collides with an earlier stream", i)
		}
		seen[v] = true
	}
}

func TestFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		s := New(seed)
		for i := 0; i < 100; i++ {
			f := s.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(5)
	for n := 1; n < 50; n++ {
		for i := 0; i < 20; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestLaplaceMoments(t *testing.T) {
	s := New(13)
	const n = 200000
	const scale = 2.5
	var sum, sumAbs float64
	for i := 0; i < n; i++ {
		v := s.Laplace(scale)
		sum += v
		sumAbs += math.Abs(v)
	}
	mean := sum / n
	meanAbs := sumAbs / n
	if math.Abs(mean) > 0.05 {
		t.Errorf("laplace mean = %v, want ~0", mean)
	}
	// E|X| = scale for Laplace(0, scale).
	if math.Abs(meanAbs-scale) > 0.05 {
		t.Errorf("laplace E|X| = %v, want ~%v", meanAbs, scale)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(23)
	p := s.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestBernoulliFrequency(t *testing.T) {
	s := New(31)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	f := float64(hits) / n
	if math.Abs(f-0.3) > 0.01 {
		t.Errorf("bernoulli(0.3) frequency = %v", f)
	}
}

func TestHashStringStable(t *testing.T) {
	if HashString("facebook.com") != HashString("facebook.com") {
		t.Fatal("hash not stable")
	}
	if HashString("facebook.com") == HashString("google.com") {
		t.Fatal("distinct strings hashed equal")
	}
}

func TestUniformityChiSquare(t *testing.T) {
	// Coarse chi-square test over 16 buckets of Float64.
	s := New(37)
	const n = 160000
	var buckets [16]int
	for i := 0; i < n; i++ {
		buckets[int(s.Float64()*16)]++
	}
	expected := float64(n) / 16
	var chi2 float64
	for _, c := range buckets {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 15 degrees of freedom; 99.9th percentile ~ 37.7.
	if chi2 > 37.7 {
		t.Errorf("chi-square = %v, uniformity suspect", chi2)
	}
}
