package hpc

import (
	"math"
	"testing"

	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/microarch"
	"github.com/repro/aegis/internal/rng"
)

func TestSignalIndices(t *testing.T) {
	if SignalIndexCount != microarch.NumSignals {
		t.Fatalf("hpc tracks %d signals, microarch exports %d", SignalIndexCount, microarch.NumSignals)
	}
	names := microarch.SignalNames()
	// Spot-check the indices named constants rely on.
	for idx, want := range map[int]string{
		sigUops:          "uops_retired",
		sigLoadsDisp:     "loads_dispatched",
		sigMABAlloc:      "mab_allocations",
		sigRefillsSystem: "l1d_refills_system",
		sigL1DWrites:     "l1d_writes",
		sigSSEOps:        "sse_ops",
		sigCtxSwitches:   "ctx_switches",
	} {
		if names[idx] != want {
			t.Errorf("signal %d = %q, want %q", idx, names[idx], want)
		}
	}
}

func TestCatalogSizesMatchTable1(t *testing.T) {
	for _, tc := range []struct {
		cat  *Catalog
		want int
	}{
		{NewIntelXeonE51650Catalog(1), 6166},
		{NewIntelXeonE54617Catalog(1), 6172},
		{NewAMDEpyc7252Catalog(1), 1903},
		{NewAMDEpyc7313PCatalog(1), 1903},
	} {
		if got := tc.cat.Size(); got != tc.want {
			t.Errorf("%s catalog size = %d, want %d", tc.cat.Processor, got, tc.want)
		}
	}
}

func TestDifferentEventsWithinFamily(t *testing.T) {
	e51650 := NewIntelXeonE51650Catalog(1)
	e54617 := NewIntelXeonE54617Catalog(1)
	// E5-4617 has 6 extra events plus 14 renamed ones; Table I reports 14
	// "different" events within the family. Renames contribute 2 to the
	// symmetric difference (old name in A, new name in B), so assert the
	// renamed count and the extras separately.
	diff := DifferentEvents(e51650, e54617)
	if diff < 14 || diff > 40 {
		t.Errorf("intel family symmetric difference = %d, want small (renames+extras)", diff)
	}

	amd1 := NewAMDEpyc7252Catalog(1)
	amd2 := NewAMDEpyc7313PCatalog(1)
	if d := DifferentEvents(amd1, amd2); d != 0 {
		t.Errorf("amd family difference = %d, want 0", d)
	}
}

func TestCatalogTypeDistribution(t *testing.T) {
	// Paper Table II: AMD EPYC 7252 is dominated by tracepoints (87.17%);
	// Intel by "other" events (54.40%).
	amd := NewAMDEpyc7252Catalog(1)
	counts := amd.TypeCounts()
	tFrac := float64(counts[TypeTracepoint]) / float64(amd.Size())
	if math.Abs(tFrac-0.8717) > 0.01 {
		t.Errorf("amd tracepoint fraction = %.4f, want ~0.8717", tFrac)
	}
	intel := NewIntelXeonE51650Catalog(1)
	ic := intel.TypeCounts()
	oFrac := float64(ic[TypeOther]) / float64(intel.Size())
	if math.Abs(oFrac-0.5440) > 0.01 {
		t.Errorf("intel other fraction = %.4f, want ~0.5440", oFrac)
	}
}

func TestGuestVisibleDistribution(t *testing.T) {
	// Paper Table II brackets: after warm-up only H, HC, most R and a few
	// T events remain; S and O vanish entirely.
	for _, cat := range []*Catalog{NewIntelXeonE51650Catalog(1), NewAMDEpyc7252Catalog(1)} {
		vis := cat.GuestVisibleCounts()
		all := cat.TypeCounts()
		if vis[TypeHardware] != all[TypeHardware] {
			t.Errorf("%s: hardware events not 100%% guest visible", cat.Processor)
		}
		if vis[TypeHardwareCache] != all[TypeHardwareCache] {
			t.Errorf("%s: hardware-cache events not 100%% guest visible", cat.Processor)
		}
		if vis[TypeSoftware] != 0 || vis[TypeOther] != 0 {
			t.Errorf("%s: software/other events marked guest visible", cat.Processor)
		}
		tFrac := float64(vis[TypeTracepoint]) / float64(all[TypeTracepoint])
		if tFrac > 0.12 {
			t.Errorf("%s: tracepoint visible fraction = %.4f, want small", cat.Processor, tFrac)
		}
		rFrac := float64(vis[TypeRaw]) / float64(all[TypeRaw])
		if rFrac < 0.85 {
			t.Errorf("%s: raw visible fraction = %.4f, want high", cat.Processor, rFrac)
		}
	}
}

func TestNamedEventsPresent(t *testing.T) {
	cat := NewAMDEpyc7252Catalog(1)
	for _, name := range []string{
		"RETIRED_UOPS", "LS_DISPATCH", "MAB_ALLOCATION_BY_PIPE",
		"DATA_CACHE_REFILLS_FROM_SYSTEM", "HW_CACHE_L1D:WRITE",
		"MEM_LOAD_UOPS_RETIRED:L1_HIT", "RETIRED_MMX_FP_INSTRUCTIONS:SSE_INSTR",
	} {
		if _, ok := cat.ByName(name); !ok {
			t.Errorf("catalog missing named event %q", name)
		}
	}
}

func TestCatalogByProcessor(t *testing.T) {
	cat, err := CatalogByProcessor("AMD EPYC 7252", 1)
	if err != nil || cat.Processor != "AMD EPYC 7252" {
		t.Fatalf("CatalogByProcessor: %v", err)
	}
	if _, err := CatalogByProcessor("Broken CPU 9000", 1); err == nil {
		t.Error("unknown processor did not error")
	}
}

func TestCatalogDeterministic(t *testing.T) {
	a := NewAMDEpyc7252Catalog(9)
	b := NewAMDEpyc7252Catalog(9)
	if a.Size() != b.Size() {
		t.Fatal("sizes differ")
	}
	for i := range a.Events {
		if a.Events[i].Name != b.Events[i].Name ||
			a.Events[i].GuestVisible != b.Events[i].GuestVisible ||
			len(a.Events[i].Terms) != len(b.Events[i].Terms) {
			t.Fatalf("event %d differs between identical seeds", i)
		}
	}
}

func TestEventValueDerivation(t *testing.T) {
	cat := NewAMDEpyc7252Catalog(1)
	var ctrs microarch.Counters
	ctrs.UopsRetired = 100
	ctrs.LoadsDisp = 30
	ctrs.StoresDisp = 20
	ctrs.MABAllocations = 7
	ctrs.RefillsFromSystem = 5
	ctrs.L1DWrites = 20
	ctrs.L1DAccesses = 50
	ctrs.L1DMisses = 7
	ctrs.SSEOps = 11
	vec := ctrs.Vector()
	for name, want := range map[string]float64{
		"RETIRED_UOPS":                          100,
		"LS_DISPATCH":                           50,
		"MAB_ALLOCATION_BY_PIPE":                7,
		"DATA_CACHE_REFILLS_FROM_SYSTEM":        5,
		"HW_CACHE_L1D:WRITE":                    20,
		"MEM_LOAD_UOPS_RETIRED:L1_HIT":          43,
		"RETIRED_MMX_FP_INSTRUCTIONS:SSE_INSTR": 11,
	} {
		e := cat.MustByName(name)
		if got := e.Value(vec); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestEventValueNonNegative(t *testing.T) {
	e := &Event{Terms: []Term{{Signal: sigL1DAccesses, Weight: 1}, {Signal: sigL1DMisses, Weight: -2}}}
	var ctrs microarch.Counters
	ctrs.L1DAccesses = 1
	ctrs.L1DMisses = 5
	if v := e.Value(ctrs.Vector()); v != 0 {
		t.Errorf("value = %v, want clamped 0", v)
	}
}

// execCore builds a core and runs n loads to move counters.
func execCore(t *testing.T, n int) *microarch.Core {
	t.Helper()
	core := microarch.NewCore(0, microarch.DefaultCoreConfig(), nil)
	ctx := microarch.NewScratchContext(0x10000)
	res := isa.Cleanup(isa.SpecAMDEpyc(1), isa.AMDEpycFeatures())
	var load isa.Variant
	for _, v := range res.Legal {
		if v.Class == isa.ClassLoad {
			load = v
			break
		}
	}
	for i := 0; i < n; i++ {
		if err := core.Execute(load, ctx); err != nil {
			t.Fatal(err)
		}
	}
	return core
}

func TestPMUProgramAndRead(t *testing.T) {
	core := microarch.NewCore(0, microarch.DefaultCoreConfig(), nil)
	pmu := NewPMU(core, nil) // noise-free
	cat := NewAMDEpyc7252Catalog(1)
	ev := cat.MustByName("RETIRED_UOPS")
	if err := pmu.Program(0, ev); err != nil {
		t.Fatal(err)
	}
	ctx := microarch.NewScratchContext(0x20000)
	res := isa.Cleanup(isa.SpecAMDEpyc(1), isa.AMDEpycFeatures())
	var alu isa.Variant
	for _, v := range res.Legal {
		if v.Class == isa.ClassALU && v.Uops == 1 {
			alu = v
			break
		}
	}
	for i := 0; i < 25; i++ {
		if err := core.Execute(alu, ctx); err != nil {
			t.Fatal(err)
		}
	}
	v, err := pmu.RDPMC(0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 25 {
		t.Errorf("RETIRED_UOPS = %v, want 25", v)
	}
}

func TestPMUReset(t *testing.T) {
	core := execCore(t, 10)
	pmu := NewPMU(core, nil)
	cat := NewAMDEpyc7252Catalog(1)
	if err := pmu.Program(1, cat.MustByName("LS_DISPATCH")); err != nil {
		t.Fatal(err)
	}
	// Counter was programmed after activity: reads zero.
	if v, _ := pmu.RDPMC(1); v != 0 {
		t.Errorf("freshly programmed counter = %v, want 0", v)
	}
	if err := pmu.Reset(1); err != nil {
		t.Fatal(err)
	}
	if v, _ := pmu.RDPMC(1); v != 0 {
		t.Errorf("after reset = %v, want 0", v)
	}
}

func TestPMUErrors(t *testing.T) {
	core := microarch.NewCore(0, microarch.DefaultCoreConfig(), nil)
	pmu := NewPMU(core, nil)
	if err := pmu.Program(-1, &Event{}); err == nil {
		t.Error("negative slot accepted")
	}
	if err := pmu.Program(NumCounterRegisters, &Event{}); err == nil {
		t.Error("out-of-range slot accepted")
	}
	if err := pmu.Program(0, nil); err != ErrNilEvent {
		t.Errorf("nil event error = %v", err)
	}
	if _, err := pmu.RDPMC(2); err != ErrSlotEmpty {
		t.Errorf("empty slot read error = %v", err)
	}
	if err := pmu.Reset(3); err != ErrSlotEmpty {
		t.Errorf("empty slot reset error = %v", err)
	}
}

func TestPMUNoiseBounded(t *testing.T) {
	core := execCore(t, 1000)
	pmu := NewPMU(core, rng.New(5).Split("pmu"))
	cat := NewAMDEpyc7252Catalog(1)
	ev := cat.MustByName("RETIRED_UOPS")
	if err := pmu.Program(0, ev); err != nil {
		t.Fatal(err)
	}
	// The counter was programmed at the current state, so the true
	// accumulated count is 0; only the noise floor remains visible.
	_ = ev
	var worst float64
	for i := 0; i < 50; i++ {
		v, err := pmu.RDPMC(0)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(v); d > worst {
			worst = d
		}
	}
	if worst > 60 {
		t.Errorf("noise excursion = %v, want bounded", worst)
	}
}

// GuestVisibleCounts returns the number of guest-visible events per type
// (the population the warm-up profiling retains).
func (c *Catalog) GuestVisibleCounts() map[EventType]int {
	out := make(map[EventType]int, 6)
	for _, e := range c.Events {
		if e.GuestVisible {
			out[e.Type]++
		}
	}
	return out
}
