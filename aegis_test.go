package aegis

import (
	"bufio"
	"bytes"
	"errors"
	"strconv"
	"strings"
	"testing"

	"github.com/repro/aegis/internal/profiler"
	"github.com/repro/aegis/internal/sev"
	"github.com/repro/aegis/internal/telemetry"
	"github.com/repro/aegis/internal/workload"
)

func smallFramework(t *testing.T) *Framework {
	t.Helper()
	fw, err := New(Config{
		Seed:              1,
		ProfileTraceTicks: 50,
		ProfileRepeats:    4,
		FuzzCandidates:    150,
	})
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

func TestNewDefaults(t *testing.T) {
	fw, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if fw.Catalog().Processor != "AMD EPYC 7252" {
		t.Errorf("default processor = %q", fw.Catalog().Processor)
	}
	if fw.LegalInstructions() != 3407 {
		t.Errorf("legal instructions = %d, want 3407", fw.LegalInstructions())
	}
}

func TestNewIntelPlatform(t *testing.T) {
	fw, err := New(Config{Processor: "Intel Xeon E5-1650"})
	if err != nil {
		t.Fatal(err)
	}
	if fw.LegalInstructions() != 3386 {
		t.Errorf("intel legal instructions = %d, want 3386", fw.LegalInstructions())
	}
}

func TestNewUnknownProcessor(t *testing.T) {
	if _, err := New(Config{Processor: "Quantum 9000"}); err == nil {
		t.Error("unknown processor accepted")
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	fw := smallFramework(t)
	app := &workload.WebsiteApp{Sites: []string{"google.com", "youtube.com", "github.com"}}

	profile, err := fw.Profile(app)
	if err != nil {
		t.Fatal(err)
	}
	if profile.TotalEvents != 1903 {
		t.Errorf("total events = %d", profile.TotalEvents)
	}
	if profile.WarmupRemaining == 0 || profile.WarmupRemaining > 300 {
		t.Errorf("warmup remaining = %d", profile.WarmupRemaining)
	}
	top := profile.Top(4)
	if len(top) != 4 {
		t.Fatalf("top events = %v", top)
	}

	gadgets, err := fw.Fuzz(top)
	if err != nil {
		t.Fatal(err)
	}
	if gadgets.CoverSize == 0 || gadgets.SegmentLen == 0 {
		t.Fatalf("gadget set = %+v", gadgets)
	}
	if gadgets.CoverSize > len(top) {
		t.Errorf("cover size %d exceeds event count %d", gadgets.CoverSize, len(top))
	}

	world := sev.NewWorld(sev.DefaultConfig(2))
	vm, err := world.LaunchVM(sev.VMConfig{VCPUs: 1, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	obf, err := fw.Protect(vm, 0, gadgets, MechanismLaplace, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	world.Run(50)
	if obf.InjectedReps() == 0 {
		t.Error("protected VM injected no noise in 50 ticks")
	}
}

// promCounts reads every histogram _count series of the default
// registry's Prometheus dump, keyed by series name and labels.
func promCounts(t *testing.T) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := telemetry.Default().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		series, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !strings.Contains(series, "_count") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("series %s: %v", series, err)
		}
		out[series] = v
	}
	return out
}

// TestStageTimingsExposed runs the facade pipeline through a single- and
// a multi-event protected run and checks that every timed stage gained
// observations on /metrics: the two fuzzer histograms and one
// stage_seconds series per stage.
func TestStageTimingsExposed(t *testing.T) {
	reg := telemetry.Default()
	was := reg.Enabled()
	reg.SetEnabled(true)
	t.Cleanup(func() { reg.SetEnabled(was) })
	before := promCounts(t)

	fw := smallFramework(t)
	profile, err := fw.Profile(&workload.WebsiteApp{Sites: []string{"google.com", "github.com"}})
	if err != nil {
		t.Fatal(err)
	}
	gadgets, err := fw.Fuzz(profile.Top(2))
	if err != nil {
		t.Fatal(err)
	}
	world := sev.NewWorld(sev.DefaultConfig(3))
	single, err := world.LaunchVM(sev.VMConfig{VCPUs: 1, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Protect(single, 0, gadgets, MechanismLaplace, 1); err != nil {
		t.Fatal(err)
	}
	multi, err := world.LaunchVM(sev.VMConfig{VCPUs: 1, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.ProtectMulti(multi, 0, gadgets, 1); err != nil {
		t.Fatal(err)
	}
	world.Run(10)

	after := promCounts(t)
	series := []string{"fuzzer_event_seconds_count", "fuzzer_cover_seconds_count"}
	for _, stage := range []string{
		"aegis.profile", "aegis.fuzz", "aegis.protect", "aegis.protect_multi",
		"fuzzer.campaign", "profiler.warmup", "profiler.rank", "profiler.rank.score",
		"obfuscator.tick",
	} {
		series = append(series, `stage_seconds_count{stage="`+stage+`"}`)
	}
	for _, s := range series {
		if after[s] <= before[s] {
			t.Errorf("%s: %v observations after the pipeline, %v before", s, after[s], before[s])
		}
	}
}

func TestProfileTopClamps(t *testing.T) {
	p := &Profile{Ranked: []profiler.RankedEvent{}}
	if got := p.Top(0); len(got) != 0 {
		t.Errorf("Top(0) on empty profile = %v", got)
	}
	// Synthesize a small ranking via a real framework catalog so the
	// events carry names.
	fw := smallFramework(t)
	ev1, _ := fw.Catalog().ByName("RETIRED_UOPS")
	ev2, _ := fw.Catalog().ByName("LS_DISPATCH")
	p = &Profile{Ranked: []profiler.RankedEvent{{Event: ev1, MI: 2}, {Event: ev2, MI: 1}}}
	if got := p.Top(0); len(got) != 0 {
		t.Errorf("Top(0) = %v, want empty", got)
	}
	if got := p.Top(-3); len(got) != 0 {
		t.Errorf("Top(-3) = %v, want empty", got)
	}
	got := p.Top(10) // n > len(Ranked) clamps to the full ranking
	if len(got) != 2 || got[0] != "RETIRED_UOPS" || got[1] != "LS_DISPATCH" {
		t.Errorf("Top(10) = %v", got)
	}
}

func TestFuzzUnknownEvent(t *testing.T) {
	fw := smallFramework(t)
	if _, err := fw.Fuzz([]string{"NOT_AN_EVENT"}); !errors.Is(err, ErrUnknownEvent) {
		t.Errorf("unknown event error = %v", err)
	}
	if _, err := fw.Fuzz(nil); err == nil {
		t.Error("empty event list accepted")
	}
}

func TestNewDefenseMechanisms(t *testing.T) {
	fw := smallFramework(t)
	gadgets, err := fw.Fuzz([]string{"RETIRED_UOPS", "LS_DISPATCH"})
	if err != nil {
		t.Fatal(err)
	}
	for _, mech := range []string{MechanismLaplace, MechanismDStar, MechanismRandom, MechanismConstant} {
		factory, err := fw.NewDefense(gadgets, mech, 1)
		if err != nil {
			t.Fatalf("%s: %v", mech, err)
		}
		if _, err := factory(3); err != nil {
			t.Errorf("%s factory: %v", mech, err)
		}
	}
	if _, err := fw.NewDefense(gadgets, "bogus", 1); !errors.Is(err, ErrUnknownMechanism) {
		t.Errorf("bogus mechanism error = %v", err)
	}
	if _, err := fw.NewDefense(nil, MechanismLaplace, 1); !errors.Is(err, ErrNoGadgets) {
		t.Errorf("nil gadget set error = %v", err)
	}
}

func TestProtectMulti(t *testing.T) {
	fw := smallFramework(t)
	gadgets, err := fw.Fuzz([]string{"RETIRED_UOPS", "LS_DISPATCH"})
	if err != nil {
		t.Fatal(err)
	}
	world := sev.NewWorld(sev.DefaultConfig(5))
	vm, err := world.LaunchVM(sev.VMConfig{VCPUs: 1, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fw.ProtectMulti(vm, 0, gadgets, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Multi.Plans() == 0 {
		t.Fatal("no plans deployed")
	}
	if len(res.ProtectedEvents)+len(res.SkippedEvents) != len(gadgets.Events) {
		t.Errorf("protected %v + skipped %v != requested %v",
			res.ProtectedEvents, res.SkippedEvents, gadgets.Events)
	}
	world.Run(60)
	if res.Multi.InjectedReps() == 0 {
		t.Error("multi-event deployment injected nothing")
	}
	// The funnel counts (plan, tick) pairs: every plan runs every tick.
	r := res.Multi.Report()
	if want := int64(res.Multi.Plans()) * 60; r.Ticks != want ||
		r.InjectedTicks+r.ZeroDrawTicks+r.NoInjectionTicks+r.DegradedTicks != want {
		t.Errorf("multi funnel %+v, want %d reconciled plan-ticks", r, want)
	}
	if _, err := fw.ProtectMulti(vm, 0, nil, 1.0); !errors.Is(err, ErrNoGadgets) {
		t.Errorf("nil gadget set error = %v", err)
	}
}

func TestProtectMultiReportsSkippedEvents(t *testing.T) {
	fw := smallFramework(t)
	gadgets, err := fw.Fuzz([]string{"RETIRED_UOPS"})
	if err != nil {
		t.Fatal(err)
	}
	// Request an extra event that fuzzing never confirmed a gadget for.
	gadgets.Events = append(gadgets.Events, "LS_DISPATCH")
	world := sev.NewWorld(sev.DefaultConfig(7))
	vm, err := world.LaunchVM(sev.VMConfig{VCPUs: 1, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fw.ProtectMulti(vm, 0, gadgets, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SkippedEvents) != 1 || res.SkippedEvents[0] != "LS_DISPATCH" {
		t.Errorf("skipped = %v, want [LS_DISPATCH]", res.SkippedEvents)
	}
	if len(res.ProtectedEvents) != 1 || res.ProtectedEvents[0] != "RETIRED_UOPS" {
		t.Errorf("protected = %v, want [RETIRED_UOPS]", res.ProtectedEvents)
	}
}

func TestProtectMultiAllSkippedFails(t *testing.T) {
	fw := smallFramework(t)
	gadgets, err := fw.Fuzz([]string{"RETIRED_UOPS"})
	if err != nil {
		t.Fatal(err)
	}
	// Every requested event lacks a confirmed gadget.
	gadgets.Events = []string{"LS_DISPATCH", "DATA_CACHE_ACCESSES"}
	world := sev.NewWorld(sev.DefaultConfig(8))
	vm, err := world.LaunchVM(sev.VMConfig{VCPUs: 1, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	_, err = fw.ProtectMulti(vm, 0, gadgets, 1.0)
	if !errors.Is(err, ErrNoGadgets) {
		t.Fatalf("all-skipped error = %v, want ErrNoGadgets", err)
	}
	for _, name := range gadgets.Events {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name skipped event %s", err, name)
		}
	}
}
