// Package rng provides deterministic, splittable pseudo-random number
// generation for the Aegis simulation.
//
// Every stochastic component in the repository (micro-architectural noise,
// workload variation, fuzzing order, DP noise sampling, ML initialisation)
// draws from an rng.Source seeded from a single experiment seed, so every
// experiment is exactly reproducible. Sources can be split into independent
// child streams by label, which keeps unrelated components statistically
// independent even when the call order between them changes.
package rng

import (
	"math"
)

// Source is a deterministic pseudo-random stream. It implements the
// SplitMix64 generator, which is small, fast, and passes BigCrush; its
// statistical quality is more than sufficient for simulation noise.
//
// A Source must not be shared between goroutines without external
// synchronisation.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// NewStream is the stream-splitting constructor used by parallel pipelines:
// it derives the child stream New(seed).Split(labels[0]).Split(labels[1])...
// in one call. Because Split never advances the parent, the derivation is a
// pure function of (seed, labels) — two workers deriving the same labelled
// stream obtain identical values no matter which runs first, and streams
// with different labels are statistically independent. Workers must derive
// their streams with this (or Split/SplitN on a private parent) rather than
// sharing a Source, which is not goroutine-safe.
func NewStream(seed uint64, labels ...string) *Source {
	s := New(seed)
	for _, l := range labels {
		s = s.Split(l)
	}
	return s
}

// Split derives an independent child stream from the source identified by
// label. The parent stream is not advanced, so splitting is order
// independent: Split("a") returns the same stream whether or not Split("b")
// was called before it.
func (s *Source) Split(label string) *Source {
	h := fnv64(label)
	// Mix the parent state and label hash through one SplitMix64 round so
	// children with similar labels diverge immediately.
	z := s.state + 0x9e3779b97f4a7c15 + h
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return &Source{state: z ^ (z >> 31)}
}

// SplitN derives an independent child stream identified by label and an
// index, for per-item streams (per website, per instruction, per trial).
func (s *Source) SplitN(label string, n int) *Source {
	child := s.Split(label)
	child.state += 0x9e3779b97f4a7c15 * uint64(n+1)
	return child
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0, matching
// math/rand semantics; callers control n so this indicates a programming
// error rather than a runtime condition.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	// 53 random mantissa bits.
	return float64(s.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normally distributed float64, using the
// Marsaglia polar method.
func (s *Source) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// Gaussian returns a normal sample with the given mean and standard
// deviation.
func (s *Source) Gaussian(mean, stddev float64) float64 {
	return mean + stddev*s.NormFloat64()
}

// Laplace returns a Laplace(0, scale) sample, generated by inverse-CDF
// transform of a uniform variate. This mirrors the paper's implementation
// note that the noise calculator transforms uniform [0,1] samples directly
// rather than calling library APIs (paper §VII-C).
func (s *Source) Laplace(scale float64) float64 {
	u := s.Float64() - 0.5
	if u < 0 {
		return scale * math.Log(1+2*u)
	}
	return -scale * math.Log(1-2*u)
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher-Yates shuffle over n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	return s.Float64() < p
}

// fnv64 hashes a string with FNV-1a.
func fnv64(str string) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(str); i++ {
		h ^= uint64(str[i])
		h *= 0x100000001b3
	}
	return h
}

// HashString exposes the deterministic string hash used for label
// derivation; workloads use it to derive stable per-secret signatures.
func HashString(str string) uint64 {
	return fnv64(str)
}
