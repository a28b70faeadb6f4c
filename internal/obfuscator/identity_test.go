package obfuscator

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
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
