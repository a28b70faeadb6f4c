package trace

import (
	"math"
	"sync"
	"testing"

	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/microarch"
	"github.com/repro/aegis/internal/obfuscator"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/sev"
	"github.com/repro/aegis/internal/workload"
)

// pmuTrace is the host's monitoring loop that Record and Project stand
// for, kept as their reference: program the events into the PMU's
// registers, then every tick step the world and read (RDPMC) and reset
// each register in order.
func pmuTrace(t testing.TB, w *sev.World, core *microarch.Core, events []*hpc.Event, noise *rng.Source, ticks int) [][]float64 {
	t.Helper()
	pmu := hpc.NewPMU(core, noise)
	for i, e := range events {
		if err := pmu.Program(i, e); err != nil {
			t.Fatal(err)
		}
	}
	data := make([][]float64, ticks)
	for tick := range data {
		w.Step()
		row := make([]float64, len(events))
		for i := range events {
			v, err := pmu.RDPMC(i)
			if err != nil {
				t.Fatal(err)
			}
			row[i] = v
			if err := pmu.Reset(i); err != nil {
				t.Fatal(err)
			}
		}
		data[tick] = row
	}
	return data
}

var defenseSegment = sync.OnceValue(func() []isa.Variant {
	legal := isa.Cleanup(isa.SpecAMDEpyc(1), isa.AMDEpycFeatures()).Legal
	var seg []isa.Variant
	for _, class := range []isa.Class{isa.ClassLoad, isa.ClassALU} {
		for _, v := range legal {
			if v.Class == class {
				seg = append(seg, v)
				break
			}
		}
	}
	return seg
})

// hostGuest builds a fresh world from seed with two guests loading
// websites, the first with a Laplace obfuscator in its defense slot when
// defended, and returns the world and the core to monitor: the first
// guest's (the victim's), or the second guest's when otherCore.
func hostGuest(t testing.TB, seed uint64, defended, otherCore bool) (*sev.World, *microarch.Core) {
	t.Helper()
	r := rng.New(seed)
	lib := workload.DefaultLibrary(1)
	sites := workload.Websites()
	victim := workload.NewRunner("browser", lib, r.Split("victim"))
	victim.Enqueue(workload.WebsiteJob(sites[seed%4], r.Split("victim-load")))
	var defense sev.Process
	if defended {
		mech, err := obfuscator.NewLaplaceMechanism(1, 1500, r.Split("mech"))
		if err != nil {
			t.Fatal(err)
		}
		ref := hpc.NewAMDEpyc7252Catalog(1).MustByName("RETIRED_UOPS")
		obf, err := obfuscator.New(obfuscator.Config{
			Mechanism: mech, Segment: defenseSegment(), RefEvent: ref, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		defense = obf
	}
	g, err := sev.NewGuest(sev.GuestConfig{
		World: sev.DefaultConfig(seed), VM: sev.VMConfig{VCPUs: 1, SEV: true}, App: victim, Defense: defense,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !otherCore {
		return g.World, g.Core
	}
	vm, err := g.World.LaunchVM(sev.VMConfig{VCPUs: 1, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	other := workload.NewRunner("browser", lib, r.Split("other"))
	other.Enqueue(workload.WebsiteJob(sites[4], r.Split("other-load")))
	if err := vm.AddProcess(0, other); err != nil {
		t.Fatal(err)
	}
	idx, err := vm.PhysicalCore(0)
	if err != nil {
		t.Fatal(err)
	}
	if victimIdx, err := g.VM.PhysicalCore(0); err != nil || idx == victimIdx {
		t.Fatalf("second guest on core %d, victim on %d (%v)", idx, victimIdx, err)
	}
	core, err := g.World.Core(idx)
	if err != nil {
		t.Fatal(err)
	}
	return g.World, core
}

// hostViewMatchesPMU records and projects one guest's host view and runs
// the PMU reference on a twin of it, and fails unless every value has the
// same bits. It returns the projected trace.
func hostViewMatchesPMU(t testing.TB, seed uint64, defended, otherCore bool, events []*hpc.Event, noiseSeed uint64, noisy bool, ticks int) Trace {
	t.Helper()
	noise := func() *rng.Source {
		if !noisy {
			return nil
		}
		return rng.New(noiseSeed).Split("monitor")
	}
	w, core := hostGuest(t, seed, defended, otherCore)
	got, err := Project(Record(w, core, ticks), events, noise(), "x")
	if err != nil {
		t.Fatal(err)
	}
	w, core = hostGuest(t, seed, defended, otherCore)
	want := pmuTrace(t, w, core, events, noise(), ticks)
	if got.Ticks() != ticks {
		t.Fatalf("projection has %d ticks, want %d", got.Ticks(), ticks)
	}
	for tick := range want {
		for i, v := range want[tick] {
			if g := got.Data[tick][i]; math.Float64bits(g) != math.Float64bits(v) {
				t.Fatalf("seed %d defended=%v otherCore=%v noisy=%v: tick %d %s = %v, PMU read %v",
					seed, defended, otherCore, noisy, tick, events[i].Name, g, v)
			}
		}
	}
	return got
}

// TestProjectMatchesPMU: projecting a recorded host view gives, bit for
// bit, the trace of the per-tick RDPMC-and-reset loop on the same core,
// with and without read noise, for one and four events, on an undefended
// and a Laplace-defended guest, on the victim's core and on another one.
func TestProjectMatchesPMU(t *testing.T) {
	events := attackEvents()
	victimTotal := map[bool]float64{} // exact RETIRED_UOPS on the victim's core, by defended
	for _, defended := range []bool{false, true} {
		for _, otherCore := range []bool{false, true} {
			for _, n := range []int{1, 4} {
				var exact float64
				for _, noisy := range []bool{false, true} {
					total := channelTotal(hostViewMatchesPMU(t, 3, defended, otherCore, events[:n], 9, noisy, 120), 0)
					if total == 0 {
						t.Errorf("defended=%v otherCore=%v: %s is all zero", defended, otherCore, events[0].Name)
					}
					if !noisy {
						exact = total
						if !otherCore {
							victimTotal[defended] = total
						}
					} else if total == exact {
						t.Errorf("defended=%v otherCore=%v: read noise left %s unchanged", defended, otherCore, events[0].Name)
					}
				}
			}
		}
	}
	if victimTotal[true] <= victimTotal[false] {
		t.Errorf("defended victim retired %v uops, undefended %v: the obfuscator injected nothing",
			victimTotal[true], victimTotal[false])
	}
}

// FuzzHostViewMatchesPMU: for any world seed, up to four catalog events,
// noise seed and trace length up to 64 ticks, on an undefended or
// defended guest and on the victim's core or another one, projecting the
// recorded host view matches the PMU's RDPMC-and-reset loop bit for bit.
func FuzzHostViewMatchesPMU(f *testing.F) {
	cat := hpc.NewAMDEpyc7252Catalog(1)
	f.Add(uint64(1), uint8(4), uint16(0), uint16(1), uint16(2), uint16(3), uint64(7), uint8(40), uint8(0b011))
	f.Add(uint64(2), uint8(1), uint16(500), uint16(0), uint16(0), uint16(0), uint64(8), uint8(64), uint8(0b110))
	f.Fuzz(func(t *testing.T, seed uint64, n uint8, e0, e1, e2, e3 uint16, noiseSeed uint64, ticks, flags uint8) {
		var events []*hpc.Event
		for _, idx := range []uint16{e0, e1, e2, e3}[:1+int(n)%hpc.NumCounterRegisters] {
			events = append(events, cat.Events[int(idx)%len(cat.Events)])
		}
		hostViewMatchesPMU(t, seed, flags&1 != 0, flags&2 != 0, events, noiseSeed, flags&4 != 0, int(ticks)%65)
	})
}
