package obfuscator

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"github.com/repro/aegis/internal/faultinject"
	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/microarch"
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

// TestCalibrationMemoMatchesMeasurement checks the per-process calibration
// memo from several goroutines at once: every lookup returns exactly the
// measurement of its own (segment, event terms) pair, across more distinct
// pairs than the memo holds, so it is emptied and refilled along the way.
func TestCalibrationMemoMatchesMeasurement(t *testing.T) {
	seg, ref := coverSegment(t)
	ops := make([]microarch.Op, len(seg))
	for i := range seg {
		ops[i] = microarch.Decode(&seg[i])
	}
	type pair struct {
		ops  []microarch.Op
		ev   *hpc.Event
		want float64
	}
	var pairs []pair
	for i := 0; len(pairs) < maxCalibrations+8; i++ {
		ev := *ref
		ev.Terms = append([]hpc.Term(nil), ref.Terms...)
		for j := range ev.Terms {
			ev.Terms[j].Weight *= float64(1 + i/len(ops))
		}
		p := pair{ops: ops[:1+i%len(ops)], ev: &ev}
		want, err := measureSegment(p.ops, p.ev)
		if err != nil {
			t.Fatal(err)
		}
		p.want = want
		pairs = append(pairs, p)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for k := range pairs {
					p := pairs[(k+g*17)%len(pairs)]
					got, err := calibrateSegment(p.ops, p.ev)
					if err != nil || got != p.want {
						t.Errorf("calibration %d ops: got %v (%v), measured %v", len(p.ops), got, err, p.want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
