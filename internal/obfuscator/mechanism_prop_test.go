package obfuscator

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/repro/aegis/internal/rng"
)

// Property: every Laplace draw is finite, and over a seeded stream both
// signs occur with roughly equal frequency (sign-flip symmetry of the
// distribution around 0).
func TestLaplaceDrawSupportAndSymmetry(t *testing.T) {
	if err := quick.Check(func(seed uint16) bool {
		m, err := NewLaplaceMechanism(1, 100, rng.New(uint64(seed)).Split("prop-lap"))
		if err != nil {
			return false
		}
		pos, neg := 0, 0
		const trials = 1000
		for i := int64(1); i <= trials; i++ {
			v := m.Noise(i, 0)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Logf("seed %d: non-finite draw %v at t=%d", seed, v, i)
				return false
			}
			if v > 0 {
				pos++
			} else if v < 0 {
				neg++
			}
		}
		// Binomial(1000, 1/2) stays within ±5σ ≈ ±80 of 500.
		return pos > 420 && neg > 420
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: clipping to [0, B] always lands in [0, B], maps the negative
// half of the support to exactly 0, and is the identity inside the bounds.
func TestClippedSupportBounds(t *testing.T) {
	const bound = 2000.0
	clip := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		if v > bound {
			return bound
		}
		return v
	}
	m, err := NewLaplaceMechanism(0.25, 500, rng.New(9).Split("prop-clip"))
	if err != nil {
		t.Fatal(err)
	}
	sawZero, sawBound, sawInterior := false, false, false
	for i := int64(1); i <= 5000; i++ {
		raw := m.Noise(i, 0)
		c := clip(raw)
		if c < 0 || c > bound {
			t.Fatalf("clipped draw %v outside [0, %v]", c, bound)
		}
		switch {
		case raw < 0 && c != 0:
			t.Fatalf("negative draw %v clipped to %v, want 0", raw, c)
		case raw > bound && c != bound:
			t.Fatalf("over-bound draw %v clipped to %v, want %v", raw, c, bound)
		case raw >= 0 && raw <= bound && c != raw:
			t.Fatalf("in-bound draw %v altered to %v", raw, c)
		}
		sawZero = sawZero || c == 0
		sawBound = sawBound || c == bound
		sawInterior = sawInterior || (c > 0 && c < bound)
	}
	// With ε=0.25 and Δ=500 the scale is 2000, so all three regions of
	// the clipped support must be visited.
	if !sawZero || !sawBound || !sawInterior {
		t.Errorf("clipped support not fully visited: zero=%t bound=%t interior=%t",
			sawZero, sawBound, sawInterior)
	}
}

// Property: d* draws stay finite through 1k ticks of commit feedback, and
// committed values inside the clipped support keep the recursion's output
// within a linear envelope of the support bound.
func TestDStarDrawBoundsUnderCommitFeedback(t *testing.T) {
	const bound = 2000.0
	m, err := NewDStarMechanism(1, 100, rng.New(10).Split("prop-dstar"))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 1000; i++ {
		v := m.Noise(i, 0)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite d* draw %v at t=%d", v, i)
		}
		clipped := v
		if clipped < 0 {
			clipped = 0
		}
		if clipped > bound {
			clipped = bound
		}
		m.Commit(i, clipped)
		// The committed parent chain adds at most one clipped value per
		// recursion level: |noise| <= bound + |fresh Laplace|, and the
		// fresh term at scale Δ·log2(t)/ε stays far below 100×Δ in 1k
		// draws (P[|X| > 70Δ·log2 t /ε] < 1e-30).
		if math.Abs(v) > bound+100*m.Sensitivity*math.Log2(float64(i)+2) {
			t.Fatalf("d* draw %v at t=%d escaped the commit envelope", v, i)
		}
	}
}

// Property: mechanisms are deterministic per stream — identical seeds
// replay identical 1k-draw sequences, different stream labels diverge.
func TestMechanismDeterminismPerStream(t *testing.T) {
	const trials = 1000
	draws := func(m Mechanism, commit bool) []float64 {
		out := make([]float64, trials)
		for i := int64(1); i <= trials; i++ {
			v := m.Noise(i, 0)
			out[i-1] = v
			if commit {
				if d, ok := m.(*DStarMechanism); ok {
					c := v
					if c < 0 {
						c = 0
					}
					d.Commit(i, c)
				}
			}
		}
		return out
	}
	mk := func(kind, label string, seed uint64) Mechanism {
		t.Helper()
		r := rng.New(seed).Split(label)
		var (
			m   Mechanism
			err error
		)
		switch kind {
		case "laplace":
			m, err = NewLaplaceMechanism(1, 100, r)
		case "dstar":
			m, err = NewDStarMechanism(1, 100, r)
		case "random":
			m, err = NewRandomNoiseMechanism(100, r)
		}
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, kind := range []string{"laplace", "dstar", "random"} {
		a := draws(mk(kind, "stream-a", 42), true)
		b := draws(mk(kind, "stream-a", 42), true)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: identical streams diverge at trial %d: %v vs %v", kind, i, a[i], b[i])
			}
		}
		c := draws(mk(kind, "stream-b", 42), true)
		same := 0
		for i := range a {
			if a[i] == c[i] {
				same++
			}
		}
		if same == trials {
			t.Errorf("%s: distinct stream labels produced identical sequences", kind)
		}
	}
}

// FuzzMechanismDraw exercises mechanism construction and the draw/commit
// cycle on arbitrary parameters: no panic, no NaN, and clipped commits
// never corrupt later draws.
func FuzzMechanismDraw(f *testing.F) {
	f.Add(uint64(1), 1.0, 100.0, int64(7))
	f.Add(uint64(2), 0.125, 1500.0, int64(1))
	f.Add(uint64(3), 8.0, 1.0, int64(1024))
	f.Fuzz(func(t *testing.T, seed uint64, eps, sens float64, tick int64) {
		// Sanitise into the constructors' documented domain; rejected
		// parameters must error, not panic.
		lm, errL := NewLaplaceMechanism(eps, sens, rng.New(seed).Split("fuzz-lap"))
		dm, errD := NewDStarMechanism(eps, sens, rng.New(seed).Split("fuzz-dstar"))
		// Finite non-positive sensitivity is documented to default to 1;
		// NaN/Inf anywhere must be rejected.
		valid := eps > 0 && !math.IsInf(eps, 0) &&
			!math.IsNaN(sens) && !math.IsInf(sens, 0)
		if !valid {
			if errL == nil || errD == nil {
				t.Fatalf("invalid (eps=%v, sens=%v) accepted: %v %v", eps, sens, errL, errD)
			}
			return
		}
		if errL != nil || errD != nil {
			t.Fatalf("valid (eps=%v, sens=%v) rejected: %v %v", eps, sens, errL, errD)
		}
		if tick < 1 {
			tick = 1 - tick
		}
		if tick < 1 || tick > 1<<40 {
			tick = 1
		}
		for i := int64(0); i < 16; i++ {
			tt := tick + i
			if v := lm.Noise(tt, 0); math.IsNaN(v) {
				t.Fatalf("laplace NaN at t=%d", tt)
			}
			v := dm.Noise(tt, 0)
			if math.IsNaN(v) {
				t.Fatalf("dstar NaN at t=%d", tt)
			}
			c := v
			if c < 0 {
				c = 0
			}
			if c > 20000 {
				c = 20000
			}
			dm.Commit(tt, c)
		}
	})
}

func TestSecretDependentMechanism(t *testing.T) {
	base, err := NewLaplaceMechanism(1, 10, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSecretDependentMechanism(nil, 1, 100); err == nil {
		t.Error("nil base accepted")
	}
	if _, err := NewSecretDependentMechanism(base, 1, 0); err == nil {
		t.Error("zero amplitude accepted")
	}
	m, err := NewSecretDependentMechanism(base, rng.HashString("secret-a"), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if m.Offset < 0 || m.Offset > 1000 {
		t.Fatalf("offset = %v out of [0, 1000]", m.Offset)
	}
	// Two different secrets derive different offsets (overwhelmingly).
	m2, err := NewSecretDependentMechanism(base, rng.HashString("secret-b"), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if m.Offset == m2.Offset {
		t.Error("distinct secrets derived identical offsets")
	}
	if m.Name() != "laplace+secret-offset" {
		t.Errorf("name = %q", m.Name())
	}
}

func TestSecretOffsetSurvivesAveraging(t *testing.T) {
	// §IX-B: averaging n noisy samples converges to the mean, which for
	// the secret-dependent mechanism retains the secret offset.
	base, err := NewLaplaceMechanism(1, 50, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewSecretDependentMechanism(base, rng.HashString("youtube.com"), 2000)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50000
	var sum float64
	for i := 0; i < n; i++ {
		sum += m.Noise(int64(i), 0)
	}
	mean := sum / n
	// Laplace base has mean 0, so the average converges to the offset.
	if diff := mean - m.Offset; diff < -5 || diff > 5 {
		t.Errorf("averaged noise %v does not converge to offset %v", mean, m.Offset)
	}
	if m.Offset < 100 {
		t.Skip("offset too small for a meaningful persistence check")
	}
}
