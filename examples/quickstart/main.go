// Quickstart: the Aegis pipeline in one page.
//
// Launch a SEV guest running a browser workload, profile which HPC events
// leak its secrets, fuzz instruction gadgets for the worst leakers, deploy
// the DP obfuscator on the victim's vCPU, and show the host-observed
// counter values before and after.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	aegis "github.com/repro/aegis"
	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/sev"
	"github.com/repro/aegis/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. A framework for the attested processor model.
	fw, err := aegis.New(aegis.Config{
		Seed:              42,
		FuzzCandidates:    300,
		ProfileTraceTicks: 60,
		ProfileRepeats:    4,
	})
	if err != nil {
		return err
	}
	fmt.Printf("platform %s: %d legal instruction variants\n",
		fw.Catalog().Processor, fw.LegalInstructions())

	// 2. Profile the protected application (a browser visiting sites).
	app := &workload.WebsiteApp{Sites: []string{"google.com", "youtube.com", "github.com"}}
	profile, err := fw.Profile(app)
	if err != nil {
		return err
	}
	fmt.Printf("profiler: %d/%d events respond to the app; top leakers:\n",
		profile.WarmupRemaining, profile.TotalEvents)
	for i, re := range profile.Ranked[:4] {
		fmt.Printf("  %d. %-40s %.3f bits\n", i+1, re.Event.Name, re.MI)
	}

	// 3. Fuzz gadgets and build the minimal cover.
	gadgets, err := fw.Fuzz(profile.Top(4))
	if err != nil {
		return err
	}
	fmt.Printf("fuzzer: %d gadgets cover all %d events (segment %d instructions)\n",
		gadgets.CoverSize, len(gadgets.Events), gadgets.SegmentLen)

	// 4. A victim world: malicious host, SEV guest, browser inside.
	observe := func(defended bool) (float64, error) {
		stream := rng.New(7).Split("quickstart")
		runner := workload.NewRunner("browser", workload.DefaultLibrary(1), stream.Split("runner"))
		runner.Enqueue(workload.WebsiteJob("github.com", stream.Split("load")))
		guest, err := sev.NewGuest(sev.GuestConfig{
			World: sev.DefaultConfig(7), VM: sev.VMConfig{VCPUs: 1, SEV: true}, App: runner,
		})
		if err != nil {
			return 0, err
		}
		if defended {
			if _, err := fw.Protect(guest.VM, 0, gadgets, aegis.MechanismLaplace, 0.5); err != nil {
				return 0, err
			}
		}
		// The hypervisor cannot read guest memory...
		if _, err := guest.VM.HostReadMemory(0, 16); err != nil {
			fmt.Printf("host memory read: %v\n", err)
		}
		// ...but it can watch the physical core's HPCs.
		pmu := hpc.NewPMU(guest.Core, nil)
		if err := pmu.Program(0, fw.Catalog().MustByName("RETIRED_UOPS")); err != nil {
			return 0, err
		}
		guest.World.Run(60)
		return pmu.RDPMC(0)
	}

	clean, err := observe(false)
	if err != nil {
		return err
	}
	noisy, err := observe(true)
	if err != nil {
		return err
	}
	fmt.Printf("\nhost-observed RETIRED_UOPS over 60 ticks:\n")
	fmt.Printf("  without Aegis: %10.0f (the app's true activity)\n", clean)
	fmt.Printf("  with Aegis:    %10.0f (+%.0f%% obfuscating noise)\n",
		noisy, (noisy/clean-1)*100)
	return nil
}
