package sev

import (
	"testing"

	"github.com/repro/aegis/internal/faultinject"
	"github.com/repro/aegis/internal/microarch"
)

// seqProc runs one fixed instruction sequence per tick via ExecuteSeq and
// records how many instructions retired each tick.
type seqProc struct {
	seq []microarch.Op
	ran []int
}

func (p *seqProc) Step(g *GuestExecutor) {
	n, err := g.ExecuteSeq(p.seq)
	if err != nil {
		return
	}
	p.ran = append(p.ran, n)
}

func launchOne(t *testing.T, seed uint64) (*World, *VM) {
	t.Helper()
	w := NewWorld(DefaultConfig(seed))
	vm, err := w.LaunchVM(VMConfig{VCPUs: 1, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	return w, vm
}

func TestPreemptionSlashesBudget(t *testing.T) {
	w, vm := launchOne(t, 1)
	p := &burnProc{perTick: 1 << 30, instr: aluVariant(t)}
	if err := vm.AddProcess(0, p); err != nil {
		t.Fatal(err)
	}
	// Every tick preempted at 25% budget: the burner retires only a
	// quarter of the tick budget.
	w.SetFaults(faultinject.New(faultinject.Config{
		Seed: 1, PreemptionRate: 1, PreemptionBurstTicks: 1, PreemptionBudgetFrac: 0.25,
	}))
	w.Run(4)
	want := 4 * w.cfg.TickBudget / 4
	if p.total != want {
		t.Errorf("retired %d instructions under full preemption, want %d", p.total, want)
	}
	// Host-visible CPU usage is measured against the FULL tick budget, so
	// a preempted guest looks under-utilised (as `top` on the host would).
	u, err := vm.CPUUsage(0)
	if err != nil {
		t.Fatal(err)
	}
	if u < 0.2 || u > 0.3 {
		t.Errorf("preempted usage = %v, want ~0.25 of the full budget", u)
	}
	if w.faults.Total() == 0 {
		t.Error("preemption faults not accounted on the injector")
	}
}

func TestGadgetInterruptExecutesPartialSequence(t *testing.T) {
	w, vm := launchOne(t, 2)
	seq := make([]microarch.Op, 16)
	for i := range seq {
		alu := aluVariant(t)
		seq[i] = microarch.Decode(&alu)
	}
	p := &seqProc{seq: seq}
	if err := vm.AddProcess(0, p); err != nil {
		t.Fatal(err)
	}
	w.SetFaults(faultinject.New(faultinject.Config{Seed: 2, GadgetInterruptRate: 1}))
	w.Run(20)
	if len(p.ran) != 20 {
		t.Fatalf("process stepped %d times, want 20", len(p.ran))
	}
	for i, n := range p.ran {
		// Budget is ample, so every shortfall is an injected interrupt.
		if n >= len(seq) {
			t.Fatalf("tick %d: full sequence retired under rate-1 interrupts", i)
		}
		if n < 0 {
			t.Fatalf("tick %d: negative retire count %d", i, n)
		}
	}
}

func TestHealthyWorldUnchangedByNilInjector(t *testing.T) {
	run := func(set bool) int {
		w, vm := launchOne(t, 3)
		if set {
			w.SetFaults(nil)
		}
		p := &burnProc{perTick: 300, instr: aluVariant(t)}
		if err := vm.AddProcess(0, p); err != nil {
			t.Fatal(err)
		}
		w.Run(10)
		return p.total
	}
	if a, b := run(false), run(true); a != b {
		t.Errorf("nil injector changed execution: %d vs %d instructions", a, b)
	}
}

func TestFaultSchedulesIndependentOfVMOrder(t *testing.T) {
	// Fault handles are labelled by (vm, vcpu), so what one vCPU suffers
	// must not depend on how many other VMs exist or map iteration order.
	retired := func(extraVMs int) []int {
		w := NewWorld(DefaultConfig(4))
		vm, err := w.LaunchVM(VMConfig{VCPUs: 1, SEV: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < extraVMs; i++ {
			other, err := w.LaunchVM(VMConfig{VCPUs: 1, SEV: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := other.AddProcess(0, &burnProc{perTick: 100, instr: aluVariant(t)}); err != nil {
				t.Fatal(err)
			}
		}
		p := &seqProc{seq: make([]microarch.Op, 8)}
		for i := range p.seq {
			alu := aluVariant(t)
			p.seq[i] = microarch.Decode(&alu)
		}
		if err := vm.AddProcess(0, p); err != nil {
			t.Fatal(err)
		}
		cfg, err := faultinject.Preset(faultinject.PresetHeavy, 4)
		if err != nil {
			t.Fatal(err)
		}
		w.SetFaults(faultinject.New(cfg))
		w.Run(50)
		return p.ran
	}
	alone, crowded := retired(0), retired(3)
	if len(alone) != len(crowded) {
		t.Fatalf("step counts differ: %d vs %d", len(alone), len(crowded))
	}
	for i := range alone {
		if alone[i] != crowded[i] {
			t.Fatalf("tick %d: vm0/vcpu0 schedule depends on other VMs (%d vs %d)",
				i, alone[i], crowded[i])
		}
	}
}
