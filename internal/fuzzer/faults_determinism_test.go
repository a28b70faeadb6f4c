package fuzzer

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"github.com/repro/aegis/internal/faultinject"
	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/telemetry"
)

// TestFaultedFuzzDeterministicAcrossParallelism extends the determinism
// regression to the fault layer: campaigns under light and heavy fault
// presets must produce byte-identical Results (including which candidates
// were dropped and which events skipped) at parallelism 1, 4 and
// GOMAXPROCS — fault schedules are derived from (event, site) labels, not
// from worker interleaving.
func TestFaultedFuzzDeterministicAcrossParallelism(t *testing.T) {
	cat := hpc.NewAMDEpyc7252Catalog(1)
	events := []*hpc.Event{
		cat.MustByName("RETIRED_UOPS"),
		cat.MustByName("LS_DISPATCH"),
		cat.MustByName("HW_CACHE_L1D:WRITE"),
		cat.MustByName("MAB_ALLOCATION_BY_PIPE"),
	}
	for _, preset := range []string{faultinject.PresetLight, faultinject.PresetHeavy} {
		preset := preset
		t.Run(preset, func(t *testing.T) {
			run := func(parallelism int) string {
				cfg := smallConfig(42)
				cfg.Parallelism = parallelism
				faults, err := faultinject.Preset(preset, 42)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Faults = faults
				f, err := New(legalAMD(t), cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := f.Fuzz(events)
				if res == nil {
					t.Fatalf("faulted campaign dropped all results: %v", err)
				}
				cover, cerr := f.MinimalCover(res, events)
				if cerr != nil {
					t.Fatal(cerr)
				}
				fp := fingerprintResult(res, events)
				for _, c := range cover {
					fp += fmt.Sprintf("cover %s -> %s\n", c.Finding.Gadget.Key(), strings.Join(c.Covers, ","))
				}
				if err != nil {
					fp += "err " + err.Error() + "\n"
				}
				return fp
			}
			serial := run(1)
			for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
				if got := run(w); got != serial {
					t.Errorf("faulted campaign (%s) at parallelism %d differs from serial run", preset, w)
				}
			}
		})
	}
}

// TestFaultInjectionCountsReplay: the per-kind fault counts are part of
// the deterministic contract too — identical campaigns must inject
// identical counts of every fault kind. Each run is sequential within the
// test, so the change in the process-wide fault_injected_total{kind}
// counters across a run is exactly that run's injections.
func TestFaultInjectionCountsReplay(t *testing.T) {
	cat := hpc.NewAMDEpyc7252Catalog(1)
	events := []*hpc.Event{cat.MustByName("RETIRED_UOPS"), cat.MustByName("LS_DISPATCH")}
	// KindDrawExtreme is the last declared kind.
	var kinds []faultinject.Kind
	for k := faultinject.Kind(0); k <= faultinject.KindDrawExtreme; k++ {
		kinds = append(kinds, k)
	}
	injected := func() map[faultinject.Kind]float64 {
		out := map[faultinject.Kind]float64{}
		for _, k := range kinds {
			out[k] = telemetry.C("fault_injected_total", telemetry.L("kind", k.String())).Value()
		}
		return out
	}
	run := func(parallelism int) map[faultinject.Kind]float64 {
		cfg := smallConfig(43)
		cfg.Parallelism = parallelism
		faults, err := faultinject.Preset(faultinject.PresetHeavy, 43)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = faults
		f, err := New(legalAMD(t), cfg)
		if err != nil {
			t.Fatal(err)
		}
		before := injected()
		if _, err := f.Fuzz(events); err != nil && f.faults.Total() == 0 {
			t.Fatalf("campaign failed without any fault injected: %v", err)
		}
		out := injected()
		var sum float64
		for _, k := range kinds {
			out[k] -= before[k]
			sum += out[k]
		}
		if sum != float64(f.faults.Total()) {
			t.Fatalf("per-kind deltas sum to %v, injector total %d", sum, f.faults.Total())
		}
		return out
	}
	a, b, c := run(1), run(1), run(4)
	for _, k := range kinds {
		if a[k] != b[k] {
			t.Errorf("kind %s: counts differ across identical runs: %v vs %v", k, a[k], b[k])
		}
		if a[k] != c[k] {
			t.Errorf("kind %s: counts differ across parallelism: %v vs %v", k, a[k], c[k])
		}
	}
	if a[faultinject.KindPMURead] == 0 {
		t.Error("heavy preset injected no PMU read faults")
	}
}
