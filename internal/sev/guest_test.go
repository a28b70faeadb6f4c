package sev

import (
	"testing"

	"github.com/repro/aegis/internal/telemetry"
)

func TestNewGuestPinsAppAheadOfDefense(t *testing.T) {
	app := &burnProc{name: "app", perTick: 100, instr: aluVariant(t)}
	def := &burnProc{name: "obf", perTick: 100, instr: aluVariant(t)}
	g, err := NewGuest(GuestConfig{World: DefaultConfig(3), VM: VMConfig{VCPUs: 1, SEV: true}, App: app, Defense: def})
	if err != nil {
		t.Fatal(err)
	}
	vc := g.VM.vcpus[0]
	if len(vc.procs) != 2 || vc.procs[0] != app || vc.procs[1] != def || !vc.defended {
		t.Fatalf("vcpu 0 procs = %v (defended %v), want [app obf] with obf in the slot", vc.procs, vc.defended)
	}
	if want := g.World.cores[vc.physCore]; g.Core != want {
		t.Error("Guest.Core is not the core vCPU 0 is pinned to")
	}
	g.World.Run(5)
	if got := g.Core.Counters().Instructions; got != uint64(app.total+def.total) || app.total != 500 || def.total != 500 {
		t.Errorf("core retired %d; app %d, defense %d, want 500 each", got, app.total, def.total)
	}
}

// TestSetDefenseKeepsSlotAndRotation swaps the defense mid-run: the new
// defense takes the old one's position and the round-robin rotation
// carries on where it was, so the swap changes no schedule.
func TestSetDefenseKeepsSlotAndRotation(t *testing.T) {
	cfg := DefaultConfig(10)
	cfg.TickBudget = 150
	app := &burnProc{name: "app", perTick: 100, instr: aluVariant(t)}
	old := &burnProc{name: "obf", perTick: 100, instr: aluVariant(t)}
	g, err := NewGuest(GuestConfig{World: cfg, VM: VMConfig{VCPUs: 1, SEV: true}, App: app, Defense: old})
	if err != nil {
		t.Fatal(err)
	}
	g.World.Step() // app first: app 100, old 50
	next := &burnProc{name: "obf", perTick: 100, instr: aluVariant(t)}
	if err := g.VM.SetDefense(0, next); err != nil {
		t.Fatal(err)
	}
	vc := g.VM.vcpus[0]
	if len(vc.procs) != 2 || vc.procs[1] != next || vc.nextFirst != 1 {
		t.Fatalf("after swap: %d procs, slot holds new defense %v, nextFirst %d; want 2, true, 1",
			len(vc.procs), vc.procs[1] == next, vc.nextFirst)
	}
	g.World.Step() // defense first: next 100, app 50
	if old.total != 50 || next.total != 100 || app.total != 150 {
		t.Errorf("old %d, new %d, app %d; want 50, 100, 150", old.total, next.total, app.total)
	}

	// A process added later is scheduled ahead of the slot.
	extra := &burnProc{name: "extra", perTick: 1, instr: aluVariant(t)}
	if err := g.VM.AddProcess(0, extra); err != nil {
		t.Fatal(err)
	}
	if vc.procs[1] != extra || vc.procs[2] != next {
		t.Errorf("AddProcess after SetDefense: slot no longer last")
	}
	if err := g.VM.SetDefense(3, next); err == nil {
		t.Error("SetDefense on a missing vCPU did not error")
	}
}

// TestDefenseSkippedTicksCounted runs an app that wants more than the
// 400-instruction tick budget: on every tick it goes first it starves the
// defense, and each such tick is counted.
func TestDefenseSkippedTicksCounted(t *testing.T) {
	skipped := telemetry.Default().Counter(telemetry.MetricSevDefenseSkippedTicksTotal)
	cfg := DefaultConfig(12)
	cfg.TickBudget = 400
	app := &burnProc{name: "app", perTick: 500, instr: aluVariant(t)}
	def := &burnProc{name: "obf", perTick: 10, instr: aluVariant(t)}
	g, err := NewGuest(GuestConfig{World: cfg, VM: VMConfig{VCPUs: 1, SEV: true}, App: app, Defense: def})
	if err != nil {
		t.Fatal(err)
	}
	before := skipped.Value()
	g.World.Run(10)
	if got := skipped.Value() - before; got != 5 {
		t.Errorf("skipped defense ticks = %v, want 5 (every tick the app goes first)", got)
	}
	if def.total != 50 {
		t.Errorf("defense ran %d instructions, want 10 on each of 5 ticks", def.total)
	}

	// The same app next to an undefended process counts nothing.
	w := NewWorld(cfg)
	vm, err := w.LaunchVM(VMConfig{VCPUs: 1, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.AddProcess(0, &burnProc{name: "app", perTick: 500, instr: aluVariant(t)}); err != nil {
		t.Fatal(err)
	}
	before = skipped.Value()
	w.Run(10)
	if got := skipped.Value() - before; got != 0 {
		t.Errorf("undefended vCPU counted %v skipped defense ticks", got)
	}
}
