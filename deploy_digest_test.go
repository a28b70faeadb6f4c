package aegis

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"strings"
	"testing"

	"github.com/repro/aegis/internal/attack"
	"github.com/repro/aegis/internal/daemon"
	"github.com/repro/aegis/internal/daemon/daemontest"
	"github.com/repro/aegis/internal/experiment"
	"github.com/repro/aegis/internal/faultinject"
	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/obfuscator"
	"github.com/repro/aegis/internal/profiler"
	"github.com/repro/aegis/internal/sev"
	"github.com/repro/aegis/internal/telemetry/flight"
	"github.com/repro/aegis/internal/workload"
)

// TestDeploymentDigestsPinned pins what every plan-to-obfuscator
// deployment path produces: the facade's NewDefense factory, a daemon
// fleet (attach, then a mechanism reload that re-plans every tenant at
// the next generation), and the robustness experiment. Each path derives
// its own mechanism stream, seed, clip bound and faults; a change to any
// of them moves a digest here.
func TestDeploymentDigestsPinned(t *testing.T) {
	want := map[string]string{
		"facade/laplace":       "f77bc003388d1603",
		"facade/random":        "c7cd4f2c3d6bbb5d",
		"daemon/laplace/off":   "dfd7fed4f07d824f",
		"daemon/laplace/light": "59051663e6adca12",
		"daemon/dstar/off":     "c16499ab95c423a1",
		"daemon/dstar/light":   "0db14319b839b53b",
		"daemon/laplace/heavy": "4bf5bd6fa09dec62",
		"daemon/dstar/heavy":   "f21ecadb136e1eba",
		"robustness":           "277c1e1631b204ad",
	}
	got := map[string]string{}

	faults, err := faultinject.Preset(faultinject.PresetLight, 5)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := New(Config{Seed: 5, FuzzCandidates: 60, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	gadgets, err := fw.Fuzz([]string{"RETIRED_UOPS"})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		name  string
		param float64
	}{{MechanismLaplace, 1}, {MechanismRandom, 3000}} {
		factory, err := fw.NewDefense(gadgets, m.name, m.param)
		if err != nil {
			t.Fatal(err)
		}
		obf, err := factory(7)
		if err != nil {
			t.Fatal(err)
		}
		w := sev.NewWorld(sev.DefaultConfig(9))
		vm, err := w.LaunchVM(sev.VMConfig{VCPUs: 1, SEV: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.AddProcess(0, obf); err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for i := 0; i < 150; i++ {
			w.Step()
			fmt.Fprintf(h, "tick %+v\n", obf.LastTick())
		}
		rep := obf.Report()
		if rep.InjectedTicks == 0 {
			t.Fatalf("facade/%s injected nothing: %+v", m.name, rep)
		}
		fmt.Fprintf(h, "report %+v\n", rep)
		got["facade/"+m.name] = digestSum(h)
	}

	for _, mech := range []string{daemon.MechanismLaplace, daemon.MechanismDStar} {
		for _, preset := range []string{faultinject.PresetOff, faultinject.PresetLight, faultinject.PresetHeavy} {
			got["daemon/"+mech+"/"+preset] = fleetDigest(t, mech, preset)
		}
	}

	res, err := experiment.Robustness(experiment.TestScale(1))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, row := range res.Rows {
		fmt.Fprintf(h, "row %+v\n", row)
	}
	got["robustness"] = digestSum(h)

	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: digest %s, want %s", name, got[name], w)
		}
	}
}

// fleetDigest runs a three-tenant daemon under mech and the named fault
// preset (only heavy is dense enough to hit the obfuscators' own PMU and
// draw faults within the run), reloads it onto the other DP mechanism halfway, and hashes the
// daemon journal plus every status.
func fleetDigest(t *testing.T, mech, preset string) string {
	t.Helper()
	cfg := daemontest.BaseConfig(11)
	cfg.Mechanism = mech
	cfg.LoadPerTick = 1
	fcfg, err := faultinject.Preset(preset, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = fcfg
	d, err := daemon.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []daemon.AttachSpec{
		{Name: "a"},
		{Name: "b", App: "keystroke", Secrets: 3},
		{Name: "c", App: "dnn"},
	} {
		if err := d.Attach(spec); err != nil {
			t.Fatal(err)
		}
	}
	next := daemon.MechanismDStar
	if mech == daemon.MechanismDStar {
		next = daemon.MechanismLaplace
	}
	for tick := 0; tick < 40; tick++ {
		if tick == 20 {
			if err := d.Reload(daemon.Tunables{Mechanism: next}); err != nil {
				t.Fatal(err)
			}
		}
		d.Step()
	}
	var sb strings.Builder
	if err := d.Journal().WriteJSONL(&sb, flight.DumpOptions{}); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write([]byte(sb.String()))
	for _, st := range d.Statuses() {
		if st.PlanGeneration != 1 || st.Protection.InjectedTicks == 0 {
			t.Fatalf("%s/%s tenant %s: generation %d, %d injected ticks",
				mech, preset, st.Name, st.PlanGeneration, st.Protection.InjectedTicks)
		}
		fmt.Fprintf(h, "tenant %+v\n", st)
	}
	fmt.Fprintf(h, "daemon %+v\n", d.Status())
	return digestSum(h)
}

func digestSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:16] }

// TestPaperFigureDigestsPinned pins the guest-level inputs of the paper's
// figures: victim traces of the attack scenario (undefended, Laplace and
// d*), the Fig. 10 job timings and CPU usage, a defended cache-occupancy
// trace, the profiler's warm-up survivors and event ranking, and the
// Fig. 3 per-trace totals. Each path builds its own SEV
// guest from its own seeds; a change to how any of them assembles,
// schedules or seeds that guest moves a digest here.
func TestPaperFigureDigestsPinned(t *testing.T) {
	want := map[string]string{
		"collect/none":    "ea7dfcd2aff726c3",
		"collect/laplace": "aac19e0146d34583",
		"collect/dstar":   "1a0161f604ee64c3",
		"figure10":        "357796e05c7a2262",
		"occupancy":       "ae8180aea701f712",
		"profiler/rank":   "24bd17363c1a05b7",
		"profiler/warmup": "7e734b9d003a6d29",
		"figure3":         "70517b1097420580",
	}
	got := map[string]string{}

	sc := experiment.TestScale(1)
	kit, err := experiment.BuildDefenseKit(sc)
	if err != nil {
		t.Fatal(err)
	}
	sites := workload.Websites()[:sc.Sites]
	scn := &attack.Scenario{
		App:             &workload.WebsiteApp{Sites: sites},
		Catalog:         kit.Catalog,
		TracesPerSecret: sc.TracesPerSecret,
		TraceTicks:      sc.TraceTicks,
		Seed:            sc.Seed,
	}
	for _, d := range []struct {
		name    string
		defense obfuscator.Factory
	}{
		{"none", nil},
		{"laplace", kit.Defense(experiment.MechLaplace, 1)},
		{"dstar", kit.Defense(experiment.MechDStar, 1)},
	} {
		h := sha256.New()
		for rep := 0; rep < 2; rep++ {
			tr, err := scn.CollectOne(sites[rep], rep, d.defense)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "trace %+v\n", tr)
		}
		got["collect/"+d.name] = digestSum(h)
	}

	fig10, err := experiment.Figure10(sc, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, p := range fig10.Points {
		fmt.Fprintf(h, "point %+v\n", p)
	}
	got["figure10"] = digestSum(h)

	occ := &experiment.OccupancyScenario{
		App:             &workload.WebsiteApp{Sites: sites[:1]},
		TracesPerSecret: 1,
		TraceTicks:      sc.TraceTicks,
		Seed:            sc.Seed,
	}
	ds, err := occ.Collect(kit.Defense(experiment.MechLaplace, 1))
	if err != nil {
		t.Fatal(err)
	}
	h = sha256.New()
	fmt.Fprintf(h, "occupancy %+v\n", ds.Traces)
	got["occupancy"] = digestSum(h)

	pcfg := profiler.DefaultConfig(sc.Seed)
	pcfg.TraceTicks = 40
	pcfg.RankRepeats = 3
	var events []*hpc.Event
	for _, name := range attack.DefaultEventNames() {
		events = append(events, kit.Catalog.MustByName(name))
	}
	ranked, err := profiler.New(kit.Catalog, pcfg).Rank(&workload.WebsiteApp{Sites: sites[:3]}, events)
	if err != nil {
		t.Fatal(err)
	}
	h = sha256.New()
	for _, re := range ranked {
		fmt.Fprintf(h, "rank %s %v %+v\n", re.Event.Name, re.MI, re.Classes)
	}
	got["profiler/rank"] = digestSum(h)

	// The warm-up's idle and active sums are internal to the profiler;
	// their bits are pinned by TestWarmupSumsPinned there, and the
	// survivors they select are pinned here.
	warm, err := profiler.New(kit.Catalog, profiler.DefaultConfig(sc.Seed)).Warmup(&workload.WebsiteApp{Sites: sites})
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Remaining) == 0 {
		t.Fatal("warm-up kept no events")
	}
	h = sha256.New()
	for _, e := range warm.Remaining {
		fmt.Fprintf(h, "survivor %s\n", e.Name)
	}
	got["profiler/warmup"] = digestSum(h)

	// Fig. 3's configuration: the first site's per-trace totals of
	// DATA_CACHE_REFILLS_FROM_SYSTEM over 4·TracesPerSecret (at least 20)
	// repeats.
	fcfg := profiler.DefaultConfig(sc.Seed)
	fcfg.TraceTicks = sc.TraceTicks
	fcfg.RankRepeats = sc.RankRepeats
	dist, err := profiler.New(kit.Catalog, fcfg).DistributionFor(&workload.WebsiteApp{Sites: sites}, sites[0],
		kit.Catalog.MustByName("DATA_CACHE_REFILLS_FROM_SYSTEM"), max(4*sc.TracesPerSecret, 20))
	if err != nil {
		t.Fatal(err)
	}
	h = sha256.New()
	for _, v := range dist.Samples {
		fmt.Fprintf(h, "sample %x\n", math.Float64bits(v))
	}
	got["figure3"] = digestSum(h)

	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: digest %s, want %s", name, got[name], w)
		}
	}
}
