package hpc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/microarch"
	"github.com/repro/aegis/internal/rng"
)

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
	ctrs[microarch.SigUopsRetired] = 100
	ctrs[microarch.SigLoadsDisp] = 30
	ctrs[microarch.SigStoresDisp] = 20
	ctrs[microarch.SigMABAllocations] = 7
	ctrs[microarch.SigRefillsFromSystem] = 5
	ctrs[microarch.SigL1DWrites] = 20
	ctrs[microarch.SigL1DAccesses] = 50
	ctrs[microarch.SigL1DMisses] = 7
	ctrs[microarch.SigSSEOps] = 11
	vec := ctrs.VectorInto(nil)
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
	e := &Event{Terms: []Term{{Signal: microarch.SigL1DAccesses, Weight: 1}, {Signal: microarch.SigL1DMisses, Weight: -2}}}
	var ctrs microarch.Counters
	ctrs[microarch.SigL1DAccesses] = 1
	ctrs[microarch.SigL1DMisses] = 5
	if v := e.Value(ctrs.VectorInto(nil)); v != 0 {
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
	op := microarch.Decode(&load)
	for i := 0; i < n; i++ {
		if err := core.ExecuteOp(op, ctx); err != nil {
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
	op := microarch.Decode(&alu)
	for i := 0; i < 25; i++ {
		if err := core.ExecuteOp(op, ctx); err != nil {
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

// TestEventNameMatchesSprintf checks the generated-name formatter against
// the %s_%04d format it replaces, past four digits too.
func TestEventNameMatchesSprintf(t *testing.T) {
	for _, i := range []int{0, 7, 10, 99, 100, 999, 1000, 3353, 9999, 10000, 123456} {
		if got, want := eventName("TP_syscalls", i), fmt.Sprintf("%s_%04d", "TP_syscalls", i); got != want {
			t.Errorf("eventName(%d) = %q, want %q", i, got, want)
		}
	}
}

// TestCatalogDigestsPinned pins all four catalogs field by field at two
// seeds: every event's ID, name, type and visibility, each term's signal
// and weight bits, and its noise sigma bits, in catalog order. Each event
// must also resolve by its name.
func TestCatalogDigestsPinned(t *testing.T) {
	want := map[string]string{
		"e5-1650/1": "194f95e0298cb7f6",
		"e5-1650/9": "e3ca82a3b06944fc",
		"e5-4617/1": "1f30c781a4e00ccb",
		"e5-4617/9": "0cdaf469a7f3d05c",
		"7252/1":    "5c417b9eecf7afdc",
		"7252/9":    "155b4fb71ff75f26",
		"7313p/1":   "1bf920c28778e17f",
		"7313p/9":   "e9497e857a6f63e2",
	}
	for _, tc := range []struct {
		name  string
		build func(uint64) *Catalog
	}{
		{"e5-1650", NewIntelXeonE51650Catalog},
		{"e5-4617", NewIntelXeonE54617Catalog},
		{"7252", NewAMDEpyc7252Catalog},
		{"7313p", NewAMDEpyc7313PCatalog},
	} {
		for _, seed := range []uint64{1, 9} {
			c := tc.build(seed)
			h := sha256.New()
			fmt.Fprintf(h, "%s %s %d\n", c.Processor, c.Family, len(c.Events))
			for _, e := range c.Events {
				fmt.Fprintf(h, "%d %q %d %t %x", e.ID, e.Name, e.Type, e.GuestVisible, math.Float64bits(e.NoiseSigma))
				for _, term := range e.Terms {
					fmt.Fprintf(h, " %d:%x", term.Signal, math.Float64bits(term.Weight))
				}
				fmt.Fprintln(h)
				if got, ok := c.ByName(e.Name); !ok || got != e {
					t.Fatalf("%s/%d: event %d %q does not resolve by name", tc.name, seed, e.ID, e.Name)
				}
			}
			name := fmt.Sprintf("%s/%d", tc.name, seed)
			if got := hex.EncodeToString(h.Sum(nil))[:16]; got != want[name] {
				t.Errorf("%s: catalog digest %s, want %s", name, got, want[name])
			}
		}
	}
}
