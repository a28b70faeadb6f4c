package obfuscator

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"github.com/repro/aegis/internal/faultinject"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/sev"
	"github.com/repro/aegis/internal/telemetry/flight"
)

// TestSinglePlanDigestPinned pins the single-event obfuscator's observable
// behaviour: a digest of every tick's TickInfo, every flight record the
// run journals (by wire name, so renumbering the Code enum does not move
// it) and the final ProtectionReport, for 200-tick Laplace and d* runs
// under each fault preset plus a "storm" schedule. Faults hit both the obfuscator's own substrate
// and the world (preemption, mid-gadget interrupts), so the digests cover
// the retry, re-arm, clip and budget-saturation paths of the tick
// protocol. A refactor of the tick loop must leave every digest unchanged.
func TestSinglePlanDigestPinned(t *testing.T) {
	want := map[string]string{
		"laplace/off":   "ea938ddf5431cea2",
		"laplace/light": "af5c2176906475a9",
		"laplace/heavy": "27eef4d90f9938de",
		"laplace/storm": "7a35ab0787625034",
		"dstar/off":     "8b5c6eea900c064d",
		"dstar/light":   "d5761d3d7dae4239",
		"dstar/heavy":   "49c0e829cc0b2600",
		"dstar/storm":   "fd21ecdb36edde72",
	}
	rec := flight.Default()

	seg, ref := coverSegment(t)
	mechs := []struct {
		name string
		mk   func() (Mechanism, error)
	}{
		{"laplace", func() (Mechanism, error) { return NewLaplaceMechanism(0.5, 200, rng.New(50).Split("lap")) }},
		{"dstar", func() (Mechanism, error) { return NewDStarMechanism(1, 100, rng.New(51).Split("dstar")) }},
	}
	for _, m := range mechs {
		for _, preset := range []string{faultinject.PresetOff, faultinject.PresetLight, faultinject.PresetHeavy, "storm"} {
			name := m.name + "/" + preset
			mech, err := m.mk()
			if err != nil {
				t.Fatal(err)
			}
			faults, worldFaults := digestFaults(t, preset, 52), digestFaults(t, preset, 54)
			obf, err := New(Config{
				Mechanism: mech, Segment: seg, RefEvent: ref,
				ClipBound: 2000, Seed: 53, Faults: faults,
			})
			if err != nil {
				t.Fatal(err)
			}
			w := sev.NewWorld(sev.DefaultConfig(55))
			w.SetFaults(faultinject.New(worldFaults))
			vm, err := w.LaunchVM(sev.VMConfig{VCPUs: 1, SEV: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := vm.AddProcess(0, obf); err != nil {
				t.Fatal(err)
			}

			// The recorder is shared: digest only this run's records, with
			// sequence numbers counted from the run's start.
			base := rec.Total()
			h := sha256.New()
			for i := 0; i < 200; i++ {
				w.Step()
				fmt.Fprintf(h, "tick %+v\n", obf.LastTick())
			}
			if n := rec.Total() - base; n > uint64(rec.Capacity()) {
				t.Fatalf("%s: %d records overflow the %d-record ring", name, n, rec.Capacity())
			}
			for _, r := range rec.Snapshot() {
				if r.Seq > base {
					r.Seq -= base
					digestRecord(h, r)
				}
			}
			fmt.Fprintf(h, "report %+v\n", obf.Report())
			got := hex.EncodeToString(h.Sum(nil))[:16]
			if got != want[name] {
				t.Errorf("%s: digest %s, want %s (report %+v)", name, got, want[name], obf.Report())
			}
		}
	}
}

// digestFaults returns the named preset, or for "storm" a schedule harsh
// enough to reach every degradation reason the tick protocol can report.
func digestFaults(t *testing.T, preset string, seed uint64) faultinject.Config {
	t.Helper()
	if preset == "storm" {
		return faultinject.Config{
			Seed: seed, PMUReadErrorRate: 0.6, CounterSaturationRate: 0.1,
			PreemptionRate: 0.1, GadgetInterruptRate: 0.6, DrawExtremeRate: 0.5,
		}
	}
	cfg, err := faultinject.Preset(preset, seed)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func digestRecord(h hash.Hash, r flight.Record) {
	fmt.Fprintf(h, "rec %d %d %s %s %s %t %x %x %x\n",
		r.Seq, r.Tick, r.Kind, r.Code, r.Sub, r.Incident, r.A, r.B, r.C)
}

// TestNoiseDrawsPinned pins the noise draw sequences bit for bit: the
// first 2,000 Noise outputs of the Laplace and d* mechanisms at two
// seeds and three ε, and the draws of the d*→Laplace fallback that New
// seeds from Config.Seed once a clip storm has switched a plan to it.
// How a mechanism computes its draws may change; what it draws may not.
func TestNoiseDrawsPinned(t *testing.T) {
	want := map[string]string{
		"laplace/seed=1/eps=0.125": "8c4427422cc06c0f",
		"laplace/seed=1/eps=1":     "e566503c5d65537c",
		"laplace/seed=1/eps=8":     "1e341c8a12b1e90c",
		"laplace/seed=2/eps=0.125": "02523b0d16004210",
		"laplace/seed=2/eps=1":     "379b9a57ae18a58f",
		"laplace/seed=2/eps=8":     "a3a2dc3a36a0b166",
		"dstar/seed=1/eps=0.125":   "946a6650304218f5",
		"dstar/seed=1/eps=1":       "5f714d73d24560b9",
		"dstar/seed=1/eps=8":       "f50045dd653a3033",
		"dstar/seed=2/eps=0.125":   "180be5760f6f615d",
		"dstar/seed=2/eps=1":       "a07e0a0c4f29f689",
		"dstar/seed=2/eps=8":       "0d89fb785b04e027",
		"fallback/seed=36":         "b05d0181d2b92288",
		"fallback/seed=42":         "619f3297fb33cde8",
	}
	const n = 2000
	digest := func(next func(t int64) float64) string {
		h := sha256.New()
		var b [8]byte
		for i := int64(1); i <= n; i++ {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(next(i)))
			h.Write(b[:])
		}
		return hex.EncodeToString(h.Sum(nil))[:16]
	}
	check := func(name, got string) {
		t.Helper()
		if got != want[name] {
			t.Errorf("%s: digest %s, want %s", name, got, want[name])
		}
	}
	for _, mech := range []string{MechanismLaplace, MechanismDStar} {
		for _, seed := range []uint64{1, 2} {
			for _, eps := range []float64{0.125, 1, 8} {
				m, err := NewMechanism(mech, eps, 0, 1, rng.New(seed).Split("draws"))
				if err != nil {
					t.Fatal(err)
				}
				d, _ := m.(*DStarMechanism)
				check(fmt.Sprintf("%s/seed=%d/eps=%g", mech, seed, eps), digest(func(t int64) float64 {
					v := m.Noise(t, 0)
					if d != nil {
						d.Commit(t, max(v, 0)) // feed the recursion as the obfuscator does
					}
					return v
				}))
			}
		}
	}
	for _, seed := range []uint64{36, 42} {
		dstar, err := NewDStarMechanism(1, 100, rng.New(seed).Split("dstar"))
		if err != nil {
			t.Fatal(err)
		}
		cfg := baseConfig(t, dstar, seed)
		cfg.Faults = faultinject.Config{Seed: seed, DrawExtremeRate: 1, DrawExtremeMagnitude: 1e9}
		obf, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runObf(t, obf, 200)
		if obf.Report().MechanismFallbacks != 1 {
			t.Fatalf("seed %d: clip storm did not fall back (report %+v)", seed, obf.Report())
		}
		fb := obf.plans[0].mech
		check(fmt.Sprintf("fallback/seed=%d", seed), digest(func(t int64) float64 { return fb.Noise(t, 0) }))
	}
}
