package obfuscator

import (
	"github.com/repro/aegis/internal/faultinject"
	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/rng"
)

// Default plan parameters: the B_u clip of the per-tick injected counts
// (paper §VIII-C: 2e4 for RETIRED_UOPS) and the DP sensitivity Δ in
// reference-event counts at the simulator's tick scale.
const (
	DefaultClipBound   = 20000
	DefaultSensitivity = 1500
)

// Factory builds a fresh obfuscator per deployment: mechanism state is
// per run, so every victim run gets its own instance.
type Factory func(seed uint64) (*Obfuscator, error)

// Recipe is the deployable protection plan shared by every obfuscator
// built from one fuzz campaign: the stacked gadget segment, the reference
// event it is calibrated on, and the clip bound and sensitivity the
// mechanisms are sized with. It is the one path from plan to obfuscator.
type Recipe struct {
	Segment   []isa.Variant
	RefEvent  *hpc.Event
	ClipBound float64
	// Sensitivity is Δ for the DP mechanisms Factory builds.
	Sensitivity float64
}

// Deploy builds an obfuscator injecting mech's noise with the recipe's
// segment. seed drives the d*→Laplace fallback stream; faults injects
// substrate faults into the obfuscator's own kernel module and draws.
func (r Recipe) Deploy(mech Mechanism, seed uint64, faults faultinject.Config) (*Obfuscator, error) {
	return New(Config{
		Mechanism: mech,
		Segment:   r.Segment,
		RefEvent:  r.RefEvent,
		ClipBound: r.ClipBound,
		Seed:      seed,
		Faults:    faults,
	})
}

// Factory returns a factory deploying the named mechanism (see
// NewMechanism for epsilon and bound), drawing its noise from the
// label-split stream of each deployment seed.
func (r Recipe) Factory(name string, epsilon, bound float64, label string, faults faultinject.Config) Factory {
	return func(seed uint64) (*Obfuscator, error) {
		mech, err := NewMechanism(name, epsilon, bound, r.Sensitivity, rng.New(seed).Split(label))
		if err != nil {
			return nil, err
		}
		return r.Deploy(mech, seed, faults)
	}
}
