package aegis_test

import (
	"fmt"

	aegis "github.com/repro/aegis"
	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/sev"
	"github.com/repro/aegis/internal/workload"
)

// Example is the quickstart, the whole pipeline in one page: profile which
// HPC events leak a browser workload's secrets, fuzz instruction gadgets
// for the worst leakers, deploy the DP obfuscator in a SEV guest, and
// compare the counter the malicious host observes without and with Aegis.
// All stages are seeded, so the output is deterministic.
func Example() {
	fw, err := aegis.New(aegis.Config{
		Seed:              42,
		FuzzCandidates:    300,
		ProfileTraceTicks: 60,
		ProfileRepeats:    4,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("platform %s: %d legal instruction variants\n",
		fw.Catalog().Processor, fw.LegalInstructions())

	app := &workload.WebsiteApp{Sites: []string{"google.com", "youtube.com", "github.com"}}
	profile, err := fw.Profile(app)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("profiler: %d/%d events respond to the app; top leakers:\n",
		profile.WarmupRemaining, profile.TotalEvents)
	for i, re := range profile.Ranked[:4] {
		fmt.Printf("  %d. %-40s %.3f bits\n", i+1, re.Event.Name, re.MI)
	}

	gadgets, err := fw.Fuzz(profile.Top(4))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("fuzzer: %d gadgets cover all %d events (segment %d instructions)\n",
		gadgets.CoverSize, len(gadgets.Events), gadgets.SegmentLen)

	clean, err := hostObservedUops(fw, nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	noisy, err := hostObservedUops(fw, gadgets)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("host-observed RETIRED_UOPS over 60 ticks:")
	fmt.Printf("  without Aegis: %10.0f (the app's true activity)\n", clean)
	fmt.Printf("  with Aegis:    %10.0f (+%.0f%% obfuscating noise)\n",
		noisy, (noisy/clean-1)*100)
	// Output:
	// platform AMD EPYC 7252: 3407 legal instruction variants
	// profiler: 155/1903 events respond to the app; top leakers:
	//   1. HW_CACHE_GEN_0007                        1.585 bits
	//   2. RAW_PMC_0007                             1.585 bits
	//   3. HW_CACHE_GEN_0013                        1.585 bits
	//   4. HW_CACHE_GEN_0054                        1.585 bits
	// fuzzer: 1 gadgets cover all 4 events (segment 2 instructions)
	// host-observed RETIRED_UOPS over 60 ticks:
	//   without Aegis:      77440 (the app's true activity)
	//   with Aegis:        386933 (+400% obfuscating noise)
}

// hostObservedUops launches a SEV guest whose browser loads github.com,
// protects its vCPU with the Laplace mechanism over gadgets unless gadgets
// is nil, and returns the RETIRED_UOPS count the hypervisor reads from the
// guest's physical core over 60 ticks. The host cannot read the guest's
// memory, but it can program and read that core's PMU.
func hostObservedUops(fw *aegis.Framework, gadgets *aegis.GadgetSet) (float64, error) {
	stream := rng.New(7).Split("quickstart")
	runner := workload.NewRunner("browser", workload.DefaultLibrary(1), stream.Split("runner"))
	runner.Enqueue(workload.WebsiteJob("github.com", stream.Split("load")))
	guest, err := sev.NewGuest(sev.GuestConfig{
		World: sev.DefaultConfig(7), VM: sev.VMConfig{VCPUs: 1, SEV: true}, App: runner,
	})
	if err != nil {
		return 0, err
	}
	if gadgets != nil {
		if _, err := fw.Protect(guest.VM, 0, gadgets, aegis.MechanismLaplace, 0.5); err != nil {
			return 0, err
		}
	}
	pmu := hpc.NewPMU(guest.Core, nil)
	if err := pmu.Program(0, fw.Catalog().MustByName("RETIRED_UOPS")); err != nil {
		return 0, err
	}
	guest.World.Run(60)
	return pmu.RDPMC(0)
}

// ExampleFramework_Profile shows the Application Profiler stage on a small
// secret set.
func ExampleFramework_Profile() {
	fw, err := aegis.New(aegis.Config{
		Seed:              1,
		ProfileTraceTicks: 40,
		ProfileRepeats:    3,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	app := &workload.WebsiteApp{Sites: []string{"google.com", "youtube.com"}}
	profile, err := fw.Profile(app)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("catalog events: %d\n", profile.TotalEvents)
	fmt.Printf("events responding to the app: %v\n", profile.WarmupRemaining > 50)
	fmt.Printf("top-1 exists: %v\n", len(profile.Top(1)) == 1)
	// Output:
	// catalog events: 1903
	// events responding to the app: true
	// top-1 exists: true
}
