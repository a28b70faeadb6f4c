package experiment

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"github.com/repro/aegis/internal/faultinject"
	"github.com/repro/aegis/internal/obfuscator"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/sev"
	"github.com/repro/aegis/internal/workload"
)

// Robustness experiment: the paper evaluates Aegis on well-behaved
// hardware; this experiment measures how the deployed defense degrades
// when the substrate misbehaves — PMU read faults, latched counters,
// vCPU preemption bursts and mid-gadget interrupts — using the
// deterministic fault injection layer. The interesting outputs are the
// degradation funnel (how many ticks kept injecting vs. were skipped) and
// whether the obfuscator correctly refuses to report full protection.

// RobustnessRow is one fault preset's outcome.
type RobustnessRow struct {
	Preset        string
	Ticks         int64
	InjectedTicks int64
	ZeroDraw      int64
	NoInjection   int64
	Degraded      int64
	Retries       int64
	Rearms        int64
	Fallbacks     int64
	FaultsTotal   uint64
	InjectedReps  int64
	Full          bool
}

// RobustnessResult is the per-preset degradation table.
type RobustnessResult struct {
	Rows []RobustnessRow
}

// Render formats the table.
func (r *RobustnessResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Robustness under substrate faults (d* obfuscator)\n")
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "preset\tticks\tinjected\tzero-draw\tno-inj\tdegraded\tretries\trearms\tfallbacks\tfaults\treps\tfull")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%t\n",
			row.Preset, row.Ticks, row.InjectedTicks, row.ZeroDraw, row.NoInjection,
			row.Degraded, row.Retries, row.Rearms, row.Fallbacks, row.FaultsTotal,
			row.InjectedReps, row.Full)
	}
	w.Flush()
	return sb.String()
}

// Robustness fuzzes one gadget cover on a healthy substrate, then deploys
// the d* obfuscator under each fault preset (or only sc.FaultPreset when
// set) and reports the degradation funnel per preset.
func Robustness(sc Scale) (*RobustnessResult, error) {
	kit, err := BuildDefenseKit(sc)
	if err != nil {
		return nil, err
	}

	presets := []string{faultinject.PresetOff, faultinject.PresetLight, faultinject.PresetHeavy}
	if sc.FaultPreset != "" {
		presets = []string{faultinject.PresetOff, sc.FaultPreset}
		if sc.FaultPreset == faultinject.PresetOff {
			presets = presets[:1]
		}
	}

	res := &RobustnessResult{}
	for _, preset := range presets {
		faults, err := faultinject.Preset(preset, sc.Seed)
		if err != nil {
			return nil, err
		}
		injector := faultinject.New(faults)

		mech, err := obfuscator.NewDStarMechanism(1.0, kit.Sensitivity,
			rng.New(sc.Seed).Split("robustness-mech"))
		if err != nil {
			return nil, err
		}
		obf, err := kit.Deploy(mech, sc.Seed, faults)
		if err != nil {
			return nil, err
		}

		lib := workload.DefaultLibrary(1)
		runner := workload.NewRunner("browser", lib, rng.New(sc.Seed).Split("robustness-runner"))
		runner.Enqueue(workload.WebsiteJob("google.com", rng.New(sc.Seed).Split("robustness-load")))
		g, err := sev.NewGuest(sev.GuestConfig{
			World: sev.DefaultConfig(sc.Seed), VM: sev.VMConfig{VCPUs: 1, SEV: true},
			Faults: injector, App: runner, Defense: obf,
		})
		if err != nil {
			return nil, err
		}
		g.World.Run(sc.TraceTicks)

		rep := obf.Report()
		res.Rows = append(res.Rows, RobustnessRow{
			Preset:        preset,
			Ticks:         rep.Ticks,
			InjectedTicks: rep.InjectedTicks,
			ZeroDraw:      rep.ZeroDrawTicks,
			NoInjection:   rep.NoInjectionTicks,
			Degraded:      rep.DegradedTicks,
			Retries:       rep.Retries,
			Rearms:        rep.CounterRearms,
			Fallbacks:     rep.MechanismFallbacks,
			FaultsTotal:   injector.Total(),
			InjectedReps:  obf.InjectedReps(),
			Full:          rep.Full(),
		})
	}
	return res, nil
}
