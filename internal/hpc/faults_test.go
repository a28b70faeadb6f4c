package hpc

import (
	"errors"
	"testing"

	"github.com/repro/aegis/internal/faultinject"
	"github.com/repro/aegis/internal/microarch"
)

func pmuUnderFaults(t *testing.T, cfg faultinject.Config) (*PMU, *microarch.Core) {
	t.Helper()
	core := microarch.NewCore(0, microarch.DefaultCoreConfig(), nil)
	pmu := NewPMU(core, nil)
	cat := NewAMDEpyc7252Catalog(1)
	if err := pmu.Program(0, cat.MustByName("RETIRED_UOPS")); err != nil {
		t.Fatal(err)
	}
	pmu.SetFaults(faultinject.New(cfg).Handle("test-pmu"))
	return pmu, core
}

func TestRDPMCReadFault(t *testing.T) {
	pmu, _ := pmuUnderFaults(t, faultinject.Config{Seed: 1, PMUReadErrorRate: 1})
	if _, err := pmu.RDPMC(0); !errors.Is(err, ErrReadFault) {
		t.Fatalf("RDPMC error = %v, want ErrReadFault", err)
	}
	// Slot errors still take precedence over injected read faults.
	if _, err := pmu.RDPMC(1); !errors.Is(err, ErrSlotEmpty) {
		t.Fatalf("empty-slot error = %v, want ErrSlotEmpty", err)
	}
	if _, err := pmu.RDPMC(99); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("bad-slot error = %v, want ErrBadSlot", err)
	}
}

func TestCounterSaturationLatchesUntilProgram(t *testing.T) {
	pmu, _ := pmuUnderFaults(t, faultinject.Config{
		Seed: 2, CounterSaturationRate: 1, SaturationCap: 777,
	})
	v, err := pmu.RDPMC(0)
	if err != nil || v != 777 {
		t.Fatalf("saturated read = %v, %v; want 777", v, err)
	}
	if !pmu.Saturated(0) {
		t.Fatal("Saturated(0) = false after overflow")
	}
	// Reset does not clear the overflow latch.
	if err := pmu.Reset(0); err != nil {
		t.Fatal(err)
	}
	if v, _ := pmu.RDPMC(0); v != 777 {
		t.Fatalf("post-Reset read = %v, want latched 777", v)
	}
	if !pmu.Saturated(0) {
		t.Fatal("Reset cleared the overflow latch")
	}
	// Re-programming the slot re-arms the counter.
	cat := NewAMDEpyc7252Catalog(1)
	if err := pmu.Program(0, cat.MustByName("RETIRED_UOPS")); err != nil {
		t.Fatal(err)
	}
	if pmu.Saturated(0) {
		t.Fatal("Program did not clear the overflow latch")
	}
	pmu.SetFaults(nil) // healthy again: the re-armed counter reads normally
	if v, _ := pmu.RDPMC(0); v != 0 {
		t.Fatalf("re-armed counter = %v, want 0", v)
	}
	// Saturated on out-of-range or empty slots reports false, not panics.
	if pmu.Saturated(-1) || pmu.Saturated(99) || pmu.Saturated(1) {
		t.Error("Saturated true for invalid/empty slot")
	}
}

func TestHealthyPMUUnaffectedByNilHandle(t *testing.T) {
	core := execCore(t, 25)
	ref := NewPMU(core, nil)
	faulted := NewPMU(core, nil)
	faulted.SetFaults(nil)
	cat := NewAMDEpyc7252Catalog(1)
	for _, p := range []*PMU{ref, faulted} {
		if err := p.Program(0, cat.MustByName("LS_DISPATCH")); err != nil {
			t.Fatal(err)
		}
	}
	a, errA := ref.RDPMC(0)
	b, errB := faulted.RDPMC(0)
	if errA != nil || errB != nil || a != b {
		t.Fatalf("nil fault handle changed reads: %v/%v vs %v/%v", a, errA, b, errB)
	}
}
