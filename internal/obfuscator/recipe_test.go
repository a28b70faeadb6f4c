package obfuscator

import (
	"errors"
	"reflect"
	"testing"

	"github.com/repro/aegis/internal/faultinject"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/sev"
)

// TestRecipeFactoryMatchesHandBuilt checks that a Recipe factory deploys
// exactly the obfuscator a caller would assemble by hand: the named
// mechanism on the label-split seed stream, the recipe's plan, and the
// seed and faults passed through.
func TestRecipeFactoryMatchesHandBuilt(t *testing.T) {
	seg, ref := coverSegment(t)
	faults, err := faultinject.Preset(faultinject.PresetHeavy, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := Recipe{Segment: seg, RefEvent: ref, ClipBound: 4000, Sensitivity: 300}
	for _, name := range []string{MechanismLaplace, MechanismDStar, MechanismRandom, MechanismConstant} {
		got, err := r.Factory(name, 2, 2, "recipe-test", faults)(17)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mech, err := NewMechanism(name, 2, 2, 300, rng.New(17).Split("recipe-test"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := New(Config{
			Mechanism: mech, Segment: seg, RefEvent: ref,
			ClipBound: 4000, Seed: 17, Faults: faults,
		})
		if err != nil {
			t.Fatal(err)
		}
		a, b := runTicks(t, got), runTicks(t, want)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: recipe report %+v, hand-built %+v", name, a, b)
		}
		if a.FaultsSeen == 0 {
			t.Errorf("%s: no faults seen; the schedule does not reach the obfuscator", name)
		}
	}
	if _, err := r.Factory("bogus", 1, 1, "x", faultinject.Config{})(1); !errors.Is(err, ErrUnknownMechanism) {
		t.Errorf("unknown mechanism: got %v, want ErrUnknownMechanism", err)
	}
	if _, err := (Recipe{RefEvent: ref}).Factory(MechanismLaplace, 1, 1, "x", faultinject.Config{})(1); !errors.Is(err, ErrNoSegment) {
		t.Errorf("empty segment: got %v, want ErrNoSegment", err)
	}
}

// runTicks runs obf alone on a fresh one-vCPU world and returns its
// protection report.
func runTicks(t *testing.T, obf *Obfuscator) ProtectionReport {
	t.Helper()
	w := sev.NewWorld(sev.DefaultConfig(23))
	vm, err := w.LaunchVM(sev.VMConfig{VCPUs: 1, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.AddProcess(0, obf); err != nil {
		t.Fatal(err)
	}
	w.Run(120)
	return obf.Report()
}
