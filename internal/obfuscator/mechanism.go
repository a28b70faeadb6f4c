// Package obfuscator implements Aegis's Event Obfuscator (paper §VII): the
// online module deployed inside the victim VM that injects instruction
// gadget executions into the VM's execution flow so that the HPC values
// observed by the malicious host are differentially private.
//
// Two DP mechanisms are provided: the Laplace mechanism (ε-DP per
// Theorem 1) and the d* mechanism ((d*, 2ε)-privacy per Theorem 2,
// following Chan et al.'s binary tree composition). Two non-private
// baselines — uniform random noise and constant-output padding — exist for
// the paper's §IX-A comparison. The runtime splits into a kernel module
// (reads real-time HPC values with RDPMC, needed by d*) and a userspace
// daemon (noise calculation plus the noise injector), mirroring the
// paper's architecture. Paper §VII-C buffers pre-computed Laplace samples;
// here each tick draws its sample directly by inverse-CDF transform on
// the mechanism's own stream ([rng.Source.Laplace]), which measured
// faster than a 64-sample ring and draws the same values in the same
// order.
package obfuscator

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"github.com/repro/aegis/internal/rng"
)

// Errors returned by the package.
var (
	ErrBadEpsilon       = errors.New("obfuscator: epsilon must be positive and finite")
	ErrBadBound         = errors.New("obfuscator: bound must be positive and finite")
	ErrUnknownMechanism = errors.New("obfuscator: unknown mechanism")
)

// Mechanism names: each mechanism's Name() and the keys NewMechanism
// accepts.
const (
	MechanismLaplace  = "laplace"
	MechanismDStar    = "dstar"
	MechanismRandom   = "random"   // §IX-A baseline, no privacy guarantee
	MechanismConstant = "constant" // §IX-A baseline, pad to a constant
)

// mechanisms is the one name → constructor table. The DP mechanisms take
// ε and the sensitivity; the §IX-A baselines take the noise bound (random)
// or padding peak (constant).
var mechanisms = map[string]func(epsilon, bound, sensitivity float64, r *rng.Source) (Mechanism, error){
	MechanismLaplace: func(epsilon, _, sensitivity float64, r *rng.Source) (Mechanism, error) {
		return NewLaplaceMechanism(epsilon, sensitivity, r)
	},
	MechanismDStar: func(epsilon, _, sensitivity float64, r *rng.Source) (Mechanism, error) {
		return NewDStarMechanism(epsilon, sensitivity, r)
	},
	MechanismRandom: func(_, bound, _ float64, r *rng.Source) (Mechanism, error) {
		return NewRandomNoiseMechanism(bound, r)
	},
	MechanismConstant: func(_, bound, _ float64, _ *rng.Source) (Mechanism, error) {
		return NewConstantOutputMechanism(bound)
	},
}

// KnownMechanism reports whether NewMechanism accepts name.
func KnownMechanism(name string) bool {
	_, ok := mechanisms[name]
	return ok
}

// NewMechanism builds the named mechanism, drawing noise from r. An
// unknown name wraps ErrUnknownMechanism.
func NewMechanism(name string, epsilon, bound, sensitivity float64, r *rng.Source) (Mechanism, error) {
	build, ok := mechanisms[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownMechanism, name)
	}
	return build(epsilon, bound, sensitivity, r)
}

// badParam reports a NaN/Inf/non-positive mechanism parameter. NaN needs
// explicit rejection: `v <= 0` is false for NaN and would slip through.
func badParam(v float64) bool {
	return !(v > 0) || math.IsInf(v, 0)
}

// Mechanism produces the per-tick noise (in event counts) to inject.
type Mechanism interface {
	// Name identifies the mechanism (MechanismLaplace, MechanismDStar, ...).
	Name() string
	// NeedsObservation reports whether the mechanism requires the
	// real-time HPC value x[t] (read by the kernel module via RDPMC).
	NeedsObservation() bool
	// Noise returns the raw (unclipped) noise for tick t given the
	// observed count x (ignored unless NeedsObservation).
	Noise(t int64, x float64) float64
}

// clampDraw clips a raw mechanism draw to the injection support [0, bound]
// (paper §VIII-C: injected gadget counts cannot be negative and are capped
// at B_u). The clamp is branch-free — the min/max builtins compile to
// floating-point select sequences, so a clip storm costs the same as the
// common in-range tick instead of training the branch predictor on the
// mechanism's draw distribution. The clip flags are materialised from
// comparisons (SETcc), not control flow.
//
// One intentional divergence from the branchy `if noise < 0` form it
// replaces: a raw draw of exactly -0.0 (the Laplace inverse-CDF emits one
// when the uniform variate lands on 0.5) normalises to +0.0 instead of
// passing through. The sign bit is unobservable downstream — repetition
// counts, the d* Commit value and the tick outcome are identical — and
// TestClampDrawEquivalence pins the full boundary matrix including this
// case.
//
// The steady-state path is allocation-free: gated dynamically by TestZeroAllocObfuscatorTick
// (alloc_gate_test.go, `make bench-alloc`) and statically by the
// aegis-lint hotpath rule, which bans allocating constructs in any
// function carrying this annotation.
//
//aegis:hotpath
func clampDraw(raw, bound float64) (noise float64, clippedLow, clippedHigh bool) {
	clippedLow = raw < 0
	clippedHigh = raw > bound
	noise = min(max(raw, 0), bound)
	return noise, clippedLow, clippedHigh
}

// LaplaceMechanism adds Lap(Δ/ε) noise per tick (paper Theorem 1: ε-DP).
type LaplaceMechanism struct {
	Epsilon float64
	// Sensitivity is Δx[t]; the paper normalises sequences and uses 1.
	Sensitivity float64
	r           *rng.Source
}

// NewLaplaceMechanism builds the mechanism; sensitivity <= 0 defaults to 1.
func NewLaplaceMechanism(epsilon, sensitivity float64, r *rng.Source) (*LaplaceMechanism, error) {
	if badParam(epsilon) {
		return nil, fmt.Errorf("%w: %v", ErrBadEpsilon, epsilon)
	}
	if math.IsNaN(sensitivity) || math.IsInf(sensitivity, 0) {
		return nil, fmt.Errorf("%w: sensitivity %v", ErrBadBound, sensitivity)
	}
	if sensitivity <= 0 {
		sensitivity = 1
	}
	return &LaplaceMechanism{
		Epsilon:     epsilon,
		Sensitivity: sensitivity,
		r:           r,
	}, nil
}

// Name implements Mechanism.
func (m *LaplaceMechanism) Name() string { return MechanismLaplace }

// NeedsObservation implements Mechanism: the Laplace mechanism is oblivious
// to the actual HPC values, which also suits the paper's stricter threat
// model where the host manipulates HPC read calls.
func (m *LaplaceMechanism) NeedsObservation() bool { return false }

// Noise implements Mechanism.
func (m *LaplaceMechanism) Noise(_ int64, _ float64) float64 {
	return m.r.Laplace(m.Sensitivity / m.Epsilon)
}

// DStarMechanism implements the d* mechanism of paper §VII-B: a binary-
// tree-structured composition where the noisy value at tick t is derived
// from the noisy value at G(t):
//
//	x̃[t] = x̃[G(t)] + (x[t] − x[G(t)]) + r_t
//
// so the injected noise recursion is n_t = n_{G(t)} + r_t with r_t drawn
// per Eq. 5. It satisfies (d*, 2ε)-privacy (Theorem 2).
type DStarMechanism struct {
	Epsilon     float64
	Sensitivity float64
	r           *rng.Source
	// memo holds the *clipped, applied* noise the obfuscator Commits, so
	// the recursion reuses exactly what was injected. Tick s is stored in
	// slot TrailingZeros64(s). A tick with k trailing zeros is the parent
	// only of ticks in (s, s+2^k], and the next tick with k trailing zeros
	// is at least s+2^(k+1), so for increasing ticks an overwrite never
	// drops a parent that a later tick still reads. Tick 0, the parent
	// only of tick 1, shares slot 0 with the odd ticks.
	memo [64]memoEntry
}

// memoEntry is one d* memo slot: the tick it holds and its noise.
type memoEntry struct {
	tick  int64
	noise float64
}

// NewDStarMechanism builds the mechanism.
func NewDStarMechanism(epsilon, sensitivity float64, r *rng.Source) (*DStarMechanism, error) {
	if badParam(epsilon) {
		return nil, fmt.Errorf("%w: %v", ErrBadEpsilon, epsilon)
	}
	if math.IsNaN(sensitivity) || math.IsInf(sensitivity, 0) {
		return nil, fmt.Errorf("%w: sensitivity %v", ErrBadBound, sensitivity)
	}
	if sensitivity <= 0 {
		sensitivity = 1
	}
	return &DStarMechanism{
		Epsilon:     epsilon,
		Sensitivity: sensitivity,
		r:           r,
	}, nil
}

// Name implements Mechanism.
func (m *DStarMechanism) Name() string { return MechanismDStar }

// NeedsObservation implements Mechanism: the d* recursion tracks real HPC
// values across ticks, which is why the kernel module monitors them.
func (m *DStarMechanism) NeedsObservation() bool { return true }

// D returns the largest power of two dividing t (paper Eq. 4 context).
func D(t int64) int64 {
	if t <= 0 {
		return 0
	}
	return t & (-t)
}

// G returns the tree parent of t per paper Eq. 4.
func G(t int64) int64 {
	switch {
	case t == 1:
		return 0
	case t == D(t) && t >= 2:
		return t / 2
	default:
		return t - D(t)
	}
}

// Noise implements Mechanism. The observed x is unused directly (the
// recursion over injected noise absorbs x[t]−x[G(t)] because the injector
// adds noise on top of whatever the application does), but the kernel
// module still reads it to follow the paper's dataflow.
func (m *DStarMechanism) Noise(t int64, _ float64) float64 {
	if t < 1 {
		return 0
	}
	var r float64
	if t == D(t) {
		r = m.r.Laplace(m.Sensitivity / m.Epsilon)
	} else {
		r = m.r.Laplace(m.Sensitivity * math.Floor(math.Log2(float64(t))) / m.Epsilon)
	}
	return m.committed(G(t)) + r
}

// committed returns the noise Committed at tick s, or 0 if s never
// committed (a starved tick, or tick 0 before its first Commit).
func (m *DStarMechanism) committed(s int64) float64 {
	if e := &m.memo[memoSlot(s)]; e.tick == s {
		return e.noise
	}
	return 0
}

// memoSlot is tick s's memo slot: its trailing zero count, 0 for tick 0.
func memoSlot(s int64) int {
	return bits.TrailingZeros64(uint64(s)) & 63
}

// Commit records the clipped noise actually injected at tick t, feeding
// future recursion steps.
func (m *DStarMechanism) Commit(t int64, applied float64) {
	m.memo[memoSlot(t)] = memoEntry{t, applied}
}

// RandomNoiseMechanism is the §IX-A baseline: uniform noise in [0, Bound]
// with no privacy guarantee.
type RandomNoiseMechanism struct {
	Bound float64
	r     *rng.Source
}

// NewRandomNoiseMechanism builds the baseline.
func NewRandomNoiseMechanism(bound float64, r *rng.Source) (*RandomNoiseMechanism, error) {
	if badParam(bound) {
		return nil, fmt.Errorf("%w: %v", ErrBadBound, bound)
	}
	return &RandomNoiseMechanism{Bound: bound, r: r}, nil
}

// Name implements Mechanism.
func (m *RandomNoiseMechanism) Name() string { return MechanismRandom }

// NeedsObservation implements Mechanism.
func (m *RandomNoiseMechanism) NeedsObservation() bool { return false }

// Noise implements Mechanism.
func (m *RandomNoiseMechanism) Noise(_ int64, _ float64) float64 {
	return m.r.Float64() * m.Bound
}

// ConstantOutputMechanism is the §IX-A "constant HPC output" baseline: pad
// every tick up to the peak value p, which the paper shows costs ~18× more
// noise than the Laplace mechanism.
type ConstantOutputMechanism struct {
	Peak float64
}

// NewConstantOutputMechanism builds the baseline.
func NewConstantOutputMechanism(peak float64) (*ConstantOutputMechanism, error) {
	if badParam(peak) {
		return nil, fmt.Errorf("%w: %v", ErrBadBound, peak)
	}
	return &ConstantOutputMechanism{Peak: peak}, nil
}

// Name implements Mechanism.
func (m *ConstantOutputMechanism) Name() string { return MechanismConstant }

// NeedsObservation implements Mechanism: padding to a constant requires
// knowing the current value.
func (m *ConstantOutputMechanism) NeedsObservation() bool { return true }

// Noise implements Mechanism.
func (m *ConstantOutputMechanism) Noise(_ int64, x float64) float64 {
	if x >= m.Peak {
		return 0
	}
	return m.Peak - x
}

// SecretDependentMechanism wraps a base mechanism with a constant,
// secret-derived offset. Paper §IX-B: an attacker who collects many traces
// of the same secret could average the DP noise away; attaching a constant
// secret-dependent noise term defeats that, because the residual after
// averaging still depends on a value the attacker does not know.
type SecretDependentMechanism struct {
	Base Mechanism
	// Offset is the constant per-tick addend, derived inside the VM from
	// the secret (the hypervisor never sees it).
	Offset float64
}

// NewSecretDependentMechanism derives the constant offset from a secret
// key (e.g. a hash of the secret value) scaled into [0, amplitude].
func NewSecretDependentMechanism(base Mechanism, secretKey uint64, amplitude float64) (*SecretDependentMechanism, error) {
	if base == nil {
		return nil, ErrNoMechanism
	}
	if amplitude <= 0 {
		return nil, fmt.Errorf("%w: %v", ErrBadBound, amplitude)
	}
	frac := float64(secretKey%4096) / 4096
	return &SecretDependentMechanism{Base: base, Offset: frac * amplitude}, nil
}

// Name implements Mechanism.
func (m *SecretDependentMechanism) Name() string {
	return m.Base.Name() + "+secret-offset"
}

// NeedsObservation implements Mechanism.
func (m *SecretDependentMechanism) NeedsObservation() bool {
	return m.Base.NeedsObservation()
}

// Noise implements Mechanism.
func (m *SecretDependentMechanism) Noise(t int64, x float64) float64 {
	return m.Offset + m.Base.Noise(t, x)
}
