package fuzzer

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"github.com/repro/aegis/internal/faultinject"
	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/obfuscator"
	"github.com/repro/aegis/internal/rng"
)

// TestFuzzCampaignPinned pins small end-to-end campaigns bit for bit: the
// findings, skips and best gadget per event, the minimal cover, the stacked
// segment and the obfuscator's calibration of that segment. Any change to
// how a gadget is sampled, executed, measured or confirmed moves a digest.
func TestFuzzCampaignPinned(t *testing.T) {
	want := map[string]string{
		"amd/1":       "131a875140533140",
		"amd/7":       "959c576e5f5e47e4",
		"intel/1":     "6031253d9f3f819b",
		"intel/7":     "bb79e461446b665e",
		"amd/1/light": "ca309d85d8194e1d",
	}
	amd := hpc.NewAMDEpyc7252Catalog(1)
	intel := hpc.NewIntelXeonE51650Catalog(1)
	type campaign struct {
		name   string
		legal  []isa.Variant
		events []*hpc.Event
		seed   uint64
		faults string
	}
	var runs []campaign
	for _, seed := range []uint64{1, 7} {
		runs = append(runs,
			campaign{
				name:  fmt.Sprintf("amd/%d", seed),
				legal: isa.Cleanup(isa.SpecAMDEpyc(seed), isa.AMDEpycFeatures()).Legal,
				events: []*hpc.Event{amd.MustByName("RETIRED_UOPS"),
					amd.MustByName("LS_DISPATCH"), amd.MustByName("HW_CACHE_L1D:WRITE"),
					amd.MustByName("BRANCH_INSTRUCTIONS_RETIRED")},
				seed: seed,
			},
			campaign{
				name:  fmt.Sprintf("intel/%d", seed),
				legal: isa.Cleanup(isa.SpecIntelXeonE5(seed), isa.IntelXeonE5Features()).Legal,
				events: []*hpc.Event{intel.MustByName("RETIRED_INSTRUCTIONS"),
					intel.MustByName("BRANCH_INSTRUCTIONS_RETIRED"), intel.MustByName("HW_CACHE_L1D:WRITE"),
					intel.MustByName("HW_CACHE_L1D:MISS")},
				seed: seed,
			})
	}
	light := runs[0]
	light.name, light.faults = "amd/1/light", faultinject.PresetLight
	runs = append(runs, light)

	for _, c := range runs {
		cfg := smallConfig(c.seed)
		cfg.CandidatesPerEvent = 200
		if c.faults != "" {
			fc, err := faultinject.Preset(c.faults, c.seed)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = fc
		}
		f, err := New(c.legal, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Fuzz(c.events)
		if res == nil {
			t.Fatalf("%s: campaign failed: %v", c.name, err)
		}
		h := sha256.New()
		fmt.Fprintf(h, "tried %d\n", res.CandidatesTried)
		for _, e := range c.events {
			fmt.Fprintf(h, "event %s\n", e.Name)
			for _, fd := range res.PerEvent[e.Name] {
				fmt.Fprintf(h, "finding %s %x\n", fd.Gadget.Key(), math.Float64bits(fd.MedianDelta))
			}
			if best, ok := res.Best[e.Name]; ok {
				fmt.Fprintf(h, "best %s %x\n", best.Gadget.Key(), math.Float64bits(best.MedianDelta))
			}
		}
		for _, sk := range res.Skipped {
			fmt.Fprintf(h, "skipped %s\n", sk.Event)
		}
		cover, err := f.MinimalCover(res, c.events)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, ce := range cover {
			fmt.Fprintf(h, "cover %s %q\n", ce.Finding.Gadget.Key(), ce.Covers)
		}
		seg := StackSegment(cover)
		for _, v := range seg {
			fmt.Fprintf(h, "segment %s\n", v.Key())
		}
		if len(seg) > 0 {
			lap, err := obfuscator.NewLaplaceMechanism(1, 100, rng.New(c.seed))
			if err != nil {
				t.Fatal(err)
			}
			o, err := obfuscator.New(obfuscator.Config{Mechanism: lap, Segment: seg, RefEvent: c.events[0]})
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			st, err := o.PlanStatus(0)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "perExec %x\n", math.Float64bits(st.PerExec))
		}
		if got := hex.EncodeToString(h.Sum(nil))[:16]; got != want[c.name] {
			t.Errorf("%s: campaign digest %s, want %s", c.name, got, want[c.name])
		}
	}
}
