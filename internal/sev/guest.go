package sev

import (
	"github.com/repro/aegis/internal/faultinject"
	"github.com/repro/aegis/internal/microarch"
)

// GuestConfig describes one protected guest: a host world with a single
// VM whose vCPU 0 runs the application and, in its defense slot, the
// defense co-scheduled with it (paper §VII-C).
type GuestConfig struct {
	// World sizes the host machine.
	World Config
	// VM configures the guest launch.
	VM VMConfig
	// Faults, when non-nil, injects substrate faults into the world.
	Faults *faultinject.Injector
	// App, when non-nil, fills vCPU 0's app slot.
	App Process
	// Defense, when non-nil, fills vCPU 0's defense slot; VM.SetDefense
	// places or replaces it later.
	Defense Process
}

// Guest is a launched protected guest.
type Guest struct {
	World *World
	VM    *VM
	// Core is the physical core vCPU 0 is pinned to: the host-side view
	// whose PMU the malicious hypervisor samples.
	Core *microarch.Core
}

// NewGuest builds the world, launches the VM and fills vCPU 0's app and
// defense slots; a nil App or Defense leaves its slot empty.
func NewGuest(cfg GuestConfig) (*Guest, error) {
	w := NewWorld(cfg.World)
	w.SetFaults(cfg.Faults)
	vm, err := w.LaunchVM(cfg.VM)
	if err != nil {
		return nil, err
	}
	vc := vm.vcpus[0] // LaunchVM always gives the VM a vCPU 0
	vc.app, vc.defense = cfg.App, cfg.Defense
	return &Guest{World: w, VM: vm, Core: w.cores[vc.physCore]}, nil
}
