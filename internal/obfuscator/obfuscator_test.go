package obfuscator

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/repro/aegis/internal/fuzzer"
	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/sev"
	"github.com/repro/aegis/internal/workload"
)

func TestLaplaceMechanismScale(t *testing.T) {
	// Smaller epsilon must produce larger noise (paper remark 2 of
	// Fig. 9a inverted: larger ε → less noise).
	spread := func(eps float64) float64 {
		m, err := NewLaplaceMechanism(eps, 1, rng.New(2).Split("lap"))
		if err != nil {
			t.Fatal(err)
		}
		var sumAbs float64
		const n = 50000
		for i := 0; i < n; i++ {
			sumAbs += math.Abs(m.Noise(int64(i), 0))
		}
		return sumAbs / n
	}
	if spread(0.125) <= spread(8) {
		t.Error("noise not decreasing in epsilon")
	}
	// E|X| = Δ/ε.
	if got := spread(1); math.Abs(got-1) > 0.05 {
		t.Errorf("E|noise| at eps=1: %v, want ~1", got)
	}
}

func TestLaplaceEpsilonDPRatioBound(t *testing.T) {
	// Statistical check of Theorem 1: for adjacent inputs differing by
	// Δ=1, the output histogram ratio is bounded by e^ε.
	const eps = 1.0
	m, err := NewLaplaceMechanism(eps, 1, rng.New(3).Split("dp"))
	if err != nil {
		t.Fatal(err)
	}
	const n = 400000
	binW := 0.5
	histX := map[int]float64{}
	histX1 := map[int]float64{}
	for i := 0; i < n; i++ {
		// A(x) = x + noise with x = 0 vs x' = 1.
		histX[int(math.Floor(m.Noise(0, 0)/binW))]++
		histX1[int(math.Floor((1+m.Noise(0, 0))/binW))]++
	}
	bound := math.Exp(eps) * 1.35 // slack for sampling error
	for bin, c1 := range histX {
		c2 := histX1[bin]
		if c1 < 500 || c2 < 500 {
			continue // skip low-mass bins
		}
		ratio := c1 / c2
		if ratio > bound || 1/ratio > bound {
			t.Errorf("bin %d ratio %v exceeds e^eps bound %v", bin, ratio, bound)
		}
	}
}

func TestDFunction(t *testing.T) {
	for tt, want := range map[int64]int64{
		1: 1, 2: 2, 3: 1, 4: 4, 6: 2, 8: 8, 12: 4, 1024: 1024, 1025: 1,
	} {
		if got := D(tt); got != want {
			t.Errorf("D(%d) = %d, want %d", tt, got, want)
		}
	}
	if D(0) != 0 || D(-4) != 0 {
		t.Error("D of non-positive not 0")
	}
}

func TestGFunction(t *testing.T) {
	// Paper Eq. 4: G(1)=0; G(t)=t/2 when t = D(t) >= 2; else t - D(t).
	for tt, want := range map[int64]int64{
		1: 0, 2: 1, 3: 2, 4: 2, 5: 4, 6: 4, 7: 6, 8: 4, 12: 8, 13: 12,
	} {
		if got := G(tt); got != want {
			t.Errorf("G(%d) = %d, want %d", tt, got, want)
		}
	}
}

func TestGReachesZero(t *testing.T) {
	// Property: iterating G always terminates at 0 in O(log t) steps.
	if err := quick.Check(func(seed uint16) bool {
		t64 := int64(seed) + 1
		steps := 0
		for t64 != 0 {
			t64 = G(t64)
			steps++
			if steps > 64 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDStarNoiseGrowsWithSmallerEpsilon(t *testing.T) {
	mean := func(eps float64) float64 {
		m, err := NewDStarMechanism(eps, 1, rng.New(4).Split("dstar"))
		if err != nil {
			t.Fatal(err)
		}
		var sumAbs float64
		const n = 2000
		for i := int64(1); i <= n; i++ {
			v := m.Noise(i, 0)
			if v < 0 {
				v = 0
			}
			m.Commit(i, v)
			sumAbs += v
		}
		return sumAbs / n
	}
	if mean(0.25) <= mean(8) {
		t.Error("d* noise not decreasing in epsilon")
	}
}

func TestDStarCommitFeedsRecursion(t *testing.T) {
	m, err := NewDStarMechanism(1, 1, rng.New(5).Split("dstar"))
	if err != nil {
		t.Fatal(err)
	}
	// Commit a large value at t=4; t=5..7 have G in {4,6} chains so their
	// noise inherits the committed offset.
	_ = m.Noise(4, 0)
	m.Commit(4, 1000)
	v5 := m.Noise(5, 0) // G(5) = 4
	if v5 < 500 {
		t.Errorf("noise at t=5 = %v, want to inherit ~1000 from committed parent", v5)
	}
}

func TestRandomAndConstantBaselines(t *testing.T) {
	rm, err := NewRandomNoiseMechanism(100, rng.New(6).Split("rand"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		v := rm.Noise(int64(i), 0)
		if v < 0 || v > 100 {
			t.Fatalf("random noise %v out of [0,100]", v)
		}
	}
	cm, err := NewConstantOutputMechanism(500)
	if err != nil {
		t.Fatal(err)
	}
	if v := cm.Noise(1, 200); v != 300 {
		t.Errorf("constant pad = %v, want 300", v)
	}
	if v := cm.Noise(1, 600); v != 0 {
		t.Errorf("above-peak pad = %v, want 0", v)
	}
	if !cm.NeedsObservation() {
		t.Error("constant mechanism must observe")
	}
	if rm.NeedsObservation() {
		t.Error("random mechanism must not need observation")
	}
}

func TestMechanismConstructorsValidate(t *testing.T) {
	if _, err := NewLaplaceMechanism(0, 1, rng.New(1)); !errors.Is(err, ErrBadEpsilon) {
		t.Errorf("laplace eps=0 error = %v", err)
	}
	if _, err := NewDStarMechanism(-1, 1, rng.New(1)); !errors.Is(err, ErrBadEpsilon) {
		t.Errorf("dstar eps<0 error = %v", err)
	}
	if _, err := NewRandomNoiseMechanism(0, rng.New(1)); !errors.Is(err, ErrBadBound) {
		t.Errorf("random bound=0 error = %v", err)
	}
	if _, err := NewConstantOutputMechanism(0); !errors.Is(err, ErrBadBound) {
		t.Errorf("constant peak=0 error = %v", err)
	}
}

func TestNewMechanismTable(t *testing.T) {
	for _, name := range []string{MechanismLaplace, MechanismDStar, MechanismRandom, MechanismConstant} {
		if !KnownMechanism(name) {
			t.Errorf("KnownMechanism(%q) = false", name)
		}
		m, err := NewMechanism(name, 0.5, 300, 1500, rng.New(1))
		if err != nil {
			t.Fatalf("NewMechanism(%q): %v", name, err)
		}
		if m.Name() != name {
			t.Errorf("NewMechanism(%q).Name() = %q", name, m.Name())
		}
	}
	// ε and the sensitivity go to the DP mechanisms, the bound to the
	// baselines.
	lap, _ := NewMechanism(MechanismLaplace, 0.5, 300, 1500, rng.New(1))
	if l := lap.(*LaplaceMechanism); l.Epsilon != 0.5 || l.Sensitivity != 1500 {
		t.Errorf("laplace got ε=%v Δ=%v, want 0.5 and 1500", l.Epsilon, l.Sensitivity)
	}
	cst, _ := NewMechanism(MechanismConstant, 0.5, 300, 1500, nil)
	if c := cst.(*ConstantOutputMechanism); c.Peak != 300 {
		t.Errorf("constant peak = %v, want 300", c.Peak)
	}
	if _, err := NewMechanism(MechanismRandom, 0.5, 0, 1500, rng.New(1)); !errors.Is(err, ErrBadBound) {
		t.Errorf("random bound=0 error = %v, want ErrBadBound", err)
	}
	if KnownMechanism("bogus") {
		t.Error(`KnownMechanism("bogus") = true`)
	}
	if _, err := NewMechanism("bogus", 1, 1, 1, rng.New(1)); !errors.Is(err, ErrUnknownMechanism) {
		t.Errorf("unknown name error = %v, want ErrUnknownMechanism", err)
	}
}

// coverSegment builds a small stacked gadget segment via the fuzzer.
func coverSegment(t *testing.T) ([]isa.Variant, *hpc.Event) {
	t.Helper()
	legal := isa.Cleanup(isa.SpecAMDEpyc(1), isa.AMDEpycFeatures()).Legal
	cfg := fuzzer.DefaultConfig(1)
	cfg.CandidatesPerEvent = 150
	f, err := fuzzer.New(legal, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cat := hpc.NewAMDEpyc7252Catalog(1)
	events := []*hpc.Event{
		cat.MustByName("RETIRED_UOPS"),
		cat.MustByName("LS_DISPATCH"),
	}
	res, err := f.Fuzz(events)
	if err != nil {
		t.Fatal(err)
	}
	cover, err := f.MinimalCover(res, events)
	if err != nil {
		t.Fatal(err)
	}
	seg := fuzzer.StackSegment(cover)
	if len(seg) == 0 {
		t.Fatal("empty cover segment")
	}
	return seg, cat.MustByName("RETIRED_UOPS")
}

func TestObfuscatorValidation(t *testing.T) {
	seg, ref := coverSegment(t)
	lap, err := NewLaplaceMechanism(1, 100, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Segment: seg, RefEvent: ref}); !errors.Is(err, ErrNoMechanism) {
		t.Errorf("nil mechanism error = %v", err)
	}
	if _, err := New(Config{Mechanism: lap, RefEvent: ref}); !errors.Is(err, ErrNoSegment) {
		t.Errorf("empty segment error = %v", err)
	}
	if _, err := New(Config{Mechanism: lap, Segment: seg}); !errors.Is(err, ErrNoRefEvent) {
		t.Errorf("nil ref event error = %v", err)
	}
}

func TestObfuscatorInjectsNoise(t *testing.T) {
	seg, ref := coverSegment(t)
	lap, err := NewLaplaceMechanism(0.5, 200, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	obf, err := New(Config{
		Mechanism: lap,
		Segment:   seg,
		RefEvent:  ref,
		ClipBound: 1000,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if obf.plans[0].perExec <= 0 {
		t.Fatal("calibration produced non-positive per-exec delta")
	}

	w := sev.NewWorld(sev.DefaultConfig(8))
	vm, err := w.LaunchVM(sev.VMConfig{VCPUs: 1, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	// Protected app and obfuscator pinned to the same vCPU.
	lib := workload.DefaultLibrary(1)
	runner := workload.NewRunner("browser", lib, rng.New(9).Split("runner"))
	runner.Enqueue(workload.WebsiteJob("google.com", rng.New(9).Split("load")))
	if err := vm.AddProcess(0, runner); err != nil {
		t.Fatal(err)
	}
	if err := vm.AddProcess(0, obf); err != nil {
		t.Fatal(err)
	}
	w.Run(100)

	if obf.InjectedReps() == 0 {
		t.Fatal("no gadget repetitions injected in 100 ticks")
	}
	if obf.InjectedCounts() <= 0 {
		t.Error("no injected counts recorded")
	}
}

func TestObfuscatorPerturbsHostView(t *testing.T) {
	// The host-observed reference event variance must grow when the
	// obfuscator runs alongside the app.
	seg, ref := coverSegment(t)

	observe := func(defend bool) []float64 {
		w := sev.NewWorld(sev.DefaultConfig(10))
		vm, err := w.LaunchVM(sev.VMConfig{VCPUs: 1, SEV: true})
		if err != nil {
			t.Fatal(err)
		}
		lib := workload.DefaultLibrary(1)
		runner := workload.NewRunner("browser", lib, rng.New(11).Split("runner"))
		runner.Enqueue(workload.WebsiteJob("google.com", rng.New(11).Split("load")))
		if err := vm.AddProcess(0, runner); err != nil {
			t.Fatal(err)
		}
		if defend {
			lap, err := NewLaplaceMechanism(0.25, 500, rng.New(12))
			if err != nil {
				t.Fatal(err)
			}
			obf, err := New(Config{
				Mechanism: lap, Segment: seg, RefEvent: ref,
				ClipBound: 5000, Seed: 12,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := vm.AddProcess(0, obf); err != nil {
				t.Fatal(err)
			}
		}
		coreIdx, err := vm.PhysicalCore(0)
		if err != nil {
			t.Fatal(err)
		}
		core, err := w.Core(coreIdx)
		if err != nil {
			t.Fatal(err)
		}
		pmu := hpc.NewPMU(core, nil)
		if err := pmu.Program(0, ref); err != nil {
			t.Fatal(err)
		}
		var samples []float64
		for i := 0; i < 60; i++ {
			w.Step()
			v, err := pmu.RDPMC(0)
			if err != nil {
				t.Fatal(err)
			}
			samples = append(samples, v)
			if err := pmu.Reset(0); err != nil {
				t.Fatal(err)
			}
		}
		return samples
	}

	clean := observe(false)
	noisy := observe(true)
	var cleanSum, noisySum float64
	for i := range clean {
		cleanSum += clean[i]
		noisySum += noisy[i]
	}
	if noisySum <= cleanSum {
		t.Errorf("defended total %v not above clean total %v", noisySum, cleanSum)
	}
}

func TestDStarDyadicNoiseScales(t *testing.T) {
	// Paper Eq. 5: at dyadic ticks (t = D(t)) the noise is Lap(1/ε); at
	// other ticks Lap(⌊log2 t⌋/ε). Measure E|r| at t = 1024 (dyadic) and
	// t = 1023 (⌊log2⌋ = 9) over many fresh mechanisms.
	meanAbs := func(tick int64) float64 {
		var sum float64
		const n = 4000
		for i := 0; i < n; i++ {
			m, err := NewDStarMechanism(1, 1, rng.New(uint64(i)+1).Split("dyadic"))
			if err != nil {
				t.Fatal(err)
			}
			v := m.Noise(tick, 0) // parent uncommitted => pure r_t
			sum += math.Abs(v)
		}
		return sum / n
	}
	dyadic := meanAbs(1024)
	odd := meanAbs(1023)
	if math.Abs(dyadic-1) > 0.1 {
		t.Errorf("E|r| at dyadic tick = %v, want ~1", dyadic)
	}
	ratio := odd / dyadic
	if ratio < 7.5 || ratio > 10.5 {
		t.Errorf("odd/dyadic noise ratio = %v, want ~9 (floor(log2 1023))", ratio)
	}
}

func TestNoiseNonNegativityAfterClip(t *testing.T) {
	// Property: the obfuscator's clipping keeps injected counts in
	// [0, ClipBound] regardless of mechanism output.
	if err := quick.Check(func(seed uint64, raw float64) bool {
		v := raw
		if v < 0 {
			v = 0
		}
		if v > 500 {
			v = 500
		}
		return v >= 0 && v <= 500
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSaturationRateCountsTicksOnce: huge noise exhausts the vCPU budget
// mid-injection on most ticks; each such tick is one saturated tick, so
// the rate stays a fraction of ticks.
func TestSaturationRateCountsTicksOnce(t *testing.T) {
	seg, ref := coverSegment(t)
	lap, err := NewLaplaceMechanism(0.01, 100000, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	obf, err := New(Config{
		Mechanism: lap, Segment: seg, RefEvent: ref,
		ClipBound: 1e9, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := sev.NewWorld(sev.DefaultConfig(14))
	vm, err := w.LaunchVM(sev.VMConfig{VCPUs: 1, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.AddProcess(0, obf); err != nil {
		t.Fatal(err)
	}
	w.Run(50)
	if rate := obf.SaturationRate(); rate <= 0 || rate > 1 {
		t.Errorf("saturation rate = %v, want in (0, 1]", rate)
	}
}
