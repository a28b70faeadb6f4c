package sev

import (
	"errors"
	"strings"
	"testing"

	"github.com/repro/aegis/internal/microarch"
	"github.com/repro/aegis/internal/telemetry"
)

func TestNewGuestPinsAppAheadOfDefense(t *testing.T) {
	app := &burnProc{perTick: 100, instr: aluVariant(t)}
	def := &burnProc{perTick: 100, instr: aluVariant(t)}
	g, err := NewGuest(GuestConfig{World: DefaultConfig(3), VM: VMConfig{VCPUs: 1, SEV: true}, App: app, Defense: def})
	if err != nil {
		t.Fatal(err)
	}
	vc := g.VM.vcpus[0]
	if vc.app != app || vc.defense != def || vc.defenseFirst {
		t.Fatalf("vcpu 0 slots: app %v, defense %v, defenseFirst %v; want app, obf, false",
			vc.app == app, vc.defense == def, vc.defenseFirst)
	}
	if want := g.World.cores[vc.physCore]; g.Core != want {
		t.Error("Guest.Core is not the core vCPU 0 is pinned to")
	}
	g.World.Run(5)
	if got := g.Core.Counters()[microarch.SigInstructions]; got != uint64(app.total+def.total) || app.total != 500 || def.total != 500 {
		t.Errorf("core retired %d; app %d, defense %d, want 500 each", got, app.total, def.total)
	}
}

// TestSetDefenseKeepsSlotAndRotation swaps the defense mid-run: the new
// defense takes the old one's slot and its turn, so the swap changes no
// schedule. A vCPU with both slots filled takes no third process.
func TestSetDefenseKeepsSlotAndRotation(t *testing.T) {
	cfg := DefaultConfig(10)
	cfg.TickBudget = 150
	app := &burnProc{perTick: 100, instr: aluVariant(t)}
	old := &burnProc{perTick: 100, instr: aluVariant(t)}
	g, err := NewGuest(GuestConfig{World: cfg, VM: VMConfig{VCPUs: 1, SEV: true}, App: app, Defense: old})
	if err != nil {
		t.Fatal(err)
	}
	g.World.Step() // app first: app 100, old 50
	next := &burnProc{perTick: 100, instr: aluVariant(t)}
	if err := g.VM.SetDefense(0, next); err != nil {
		t.Fatal(err)
	}
	vc := g.VM.vcpus[0]
	if vc.app != app || vc.defense != next || !vc.defenseFirst {
		t.Fatalf("after swap: app kept %v, slot holds new defense %v, defenseFirst %v; want all true",
			vc.app == app, vc.defense == next, vc.defenseFirst)
	}
	g.World.Step() // defense first: next 100, app 50
	if old.total != 50 || next.total != 100 || app.total != 150 {
		t.Errorf("old %d, new %d, app %d; want 50, 100, 150", old.total, next.total, app.total)
	}

	extra := &burnProc{perTick: 1, instr: aluVariant(t)}
	if err := g.VM.AddProcess(0, extra); !errors.Is(err, ErrVCPUFull) {
		t.Errorf("AddProcess on a full vCPU = %v, want ErrVCPUFull", err)
	}
	if vc.app != app || vc.defense != next {
		t.Error("a refused AddProcess changed a slot")
	}
	if err := g.VM.SetDefense(3, next); err == nil {
		t.Error("SetDefense on a missing vCPU did not error")
	}
}

// TestAddProcessFillsAppThenDefense checks AddProcess's slot order: the
// first process is the app, the second the defense, and a third is
// refused with an error naming the vCPU.
func TestAddProcessFillsAppThenDefense(t *testing.T) {
	w := NewWorld(DefaultConfig(13))
	vm, err := w.LaunchVM(VMConfig{VCPUs: 2, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	a := &burnProc{perTick: 1, instr: aluVariant(t)}
	b := &burnProc{perTick: 1, instr: aluVariant(t)}
	for _, p := range []Process{a, b} {
		if err := vm.AddProcess(1, p); err != nil {
			t.Fatal(err)
		}
	}
	if vc := vm.vcpus[1]; vc.app != a || vc.defense != b {
		t.Fatalf("slots after two AddProcess calls: app %v, defense %v; want the first, then the second",
			vc.app == a, vc.defense == b)
	}
	err = vm.AddProcess(1, &burnProc{perTick: 1, instr: aluVariant(t)})
	if !errors.Is(err, ErrVCPUFull) || !strings.Contains(err.Error(), "vm0/vcpu1") {
		t.Errorf("third AddProcess = %v, want ErrVCPUFull naming vm0/vcpu1", err)
	}
}

// TestSetDefenseBeforeAddProcessRunsAppFirst places the defense on an
// empty vCPU and the app later: the app still goes first on the first
// tick both slots are filled.
func TestSetDefenseBeforeAddProcessRunsAppFirst(t *testing.T) {
	cfg := DefaultConfig(14)
	cfg.TickBudget = 150
	w := NewWorld(cfg)
	vm, err := w.LaunchVM(VMConfig{VCPUs: 1, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	def := &burnProc{perTick: 100, instr: aluVariant(t)}
	app := &burnProc{perTick: 100, instr: aluVariant(t)}
	if err := vm.SetDefense(0, def); err != nil {
		t.Fatal(err)
	}
	if err := vm.AddProcess(0, app); err != nil {
		t.Fatal(err)
	}
	if vc := vm.vcpus[0]; vc.app != app || vc.defense != def {
		t.Fatal("AddProcess after SetDefense did not fill the app slot")
	}
	w.Step()
	if app.total != 100 || def.total != 50 {
		t.Errorf("first tick: app %d, defense %d; want 100, 50 (app first)", app.total, def.total)
	}
}

// TestDefenseOnlyGuest builds a guest with a defense and no app: the
// defense runs alone on every tick, the turn never moves, and an app
// added later goes first on its first tick.
func TestDefenseOnlyGuest(t *testing.T) {
	cfg := DefaultConfig(15)
	cfg.TickBudget = 150
	def := &burnProc{perTick: 100, instr: aluVariant(t)}
	g, err := NewGuest(GuestConfig{World: cfg, VM: VMConfig{VCPUs: 1, SEV: true}, Defense: def})
	if err != nil {
		t.Fatal(err)
	}
	g.World.Run(3) // odd, so a turn that moved would now be the defense's
	if def.total != 300 {
		t.Errorf("defense alone ran %d instructions over 3 ticks, want 300", def.total)
	}
	app := &burnProc{perTick: 100, instr: aluVariant(t)}
	if err := g.VM.AddProcess(0, app); err != nil {
		t.Fatal(err)
	}
	g.World.Step()
	if app.total != 100 || def.total != 350 {
		t.Errorf("first shared tick: app %d, defense %d more; want 100, 50 (app first)", app.total, def.total-300)
	}
}

// TestDefenseSkippedTicksCounted runs an app that wants more than the
// 400-instruction tick budget: on every tick it goes first it starves the
// defense, and each such tick is counted. A vCPU filled by two AddProcess
// calls holds its second process in the defense slot and counts the same.
func TestDefenseSkippedTicksCounted(t *testing.T) {
	skipped := telemetry.Default().Counter(telemetry.MetricSevDefenseSkippedTicksTotal)
	cfg := DefaultConfig(12)
	cfg.TickBudget = 400
	app := &burnProc{perTick: 500, instr: aluVariant(t)}
	def := &burnProc{perTick: 10, instr: aluVariant(t)}
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

	w := NewWorld(cfg)
	vm, err := w.LaunchVM(VMConfig{VCPUs: 2, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	def = &burnProc{perTick: 10, instr: aluVariant(t)}
	for _, p := range []Process{&burnProc{perTick: 500, instr: aluVariant(t)}, def} {
		if err := vm.AddProcess(0, p); err != nil {
			t.Fatal(err)
		}
	}
	// An app with no defense beside it counts nothing.
	if err := vm.AddProcess(1, &burnProc{perTick: 500, instr: aluVariant(t)}); err != nil {
		t.Fatal(err)
	}
	before = skipped.Value()
	w.Run(10)
	if got := skipped.Value() - before; got != 5 {
		t.Errorf("two-AddProcess vCPU counted %v skipped defense ticks, want 5", got)
	}
	if def.total != 50 {
		t.Errorf("second process ran %d instructions, want 10 on each of 5 ticks", def.total)
	}
}
