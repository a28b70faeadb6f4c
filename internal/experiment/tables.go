package experiment

import (
	"fmt"
	"time"

	"github.com/repro/aegis/internal/fuzzer"
	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/profiler"
)

// Table1Row is one processor of paper Table I.
type Table1Row struct {
	Processor string
	Events    int
	// DifferentWithinFamily is the event-name difference to the family's
	// base model ("/" for the base model itself).
	DifferentWithinFamily int
	BaseModel             bool
}

// Table1Result reproduces paper Table I: HPC event statistics across four
// processor models.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 builds the event catalogs and counts events and within-family
// differences.
func Table1() Table1Result {
	e51650 := hpc.NewIntelXeonE51650Catalog(1)
	e54617 := hpc.NewIntelXeonE54617Catalog(1)
	amd7252 := hpc.NewAMDEpyc7252Catalog(1)
	amd7313 := hpc.NewAMDEpyc7313PCatalog(1)
	return Table1Result{Rows: []Table1Row{
		{Processor: e51650.Processor, Events: e51650.Size(), BaseModel: true},
		{Processor: e54617.Processor, Events: e54617.Size(),
			DifferentWithinFamily: hpc.DifferentEvents(e51650, e54617)},
		{Processor: amd7252.Processor, Events: amd7252.Size(), BaseModel: true},
		{Processor: amd7313.Processor, Events: amd7313.Size(),
			DifferentWithinFamily: hpc.DifferentEvents(amd7252, amd7313)},
	}}
}

// Render prints the table.
func (r Table1Result) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		diff := "/"
		if !row.BaseModel {
			diff = fmt.Sprintf("%d", row.DifferentWithinFamily)
		}
		rows = append(rows, []string{row.Processor, fmt.Sprintf("%d", row.Events), diff})
	}
	return "Table I: HPC event statistics\n" +
		table([]string{"Processor", "# of HPC Events", "# of Different Events"}, rows)
}

// Table2Row is one processor of paper Table II.
type Table2Row struct {
	Processor string
	// Share is the fraction of the catalog per event type.
	Share map[hpc.EventType]float64
	// RemainingShare is the fraction of each type surviving warm-up
	// profiling (the bracketed numbers of Table II).
	RemainingShare map[hpc.EventType]float64
	// RemainingTotal is the total number of surviving events.
	RemainingTotal int
	// TotalEvents is the catalog size swept by the warm-up, the work unit
	// the bench harness uses for throughput.
	TotalEvents int
}

// Table2Result reproduces paper Table II: HPC event type distribution and
// warm-up survival.
type Table2Result struct {
	Rows []Table2Row
}

// Table2 runs warm-up profiling of the website application on the Intel
// and AMD catalogs.
func Table2(sc Scale) (Table2Result, error) {
	var out Table2Result
	app := websiteApp(sc)
	pcfg, err := sc.profilerConfig()
	if err != nil {
		return Table2Result{}, err
	}
	pcfg.WarmupRepeats = 3
	for _, cat := range []*hpc.Catalog{
		hpc.NewIntelXeonE51650Catalog(1),
		hpc.NewAMDEpyc7252Catalog(1),
	} {
		warm, err := profiler.New(cat, pcfg).Warmup(app)
		if err != nil {
			return Table2Result{}, err
		}
		row := Table2Row{
			Processor:      cat.Processor,
			Share:          make(map[hpc.EventType]float64),
			RemainingShare: make(map[hpc.EventType]float64),
			RemainingTotal: len(warm.Remaining),
			TotalEvents:    cat.Size(),
		}
		counts := cat.TypeCounts()
		for _, t := range hpc.AllEventTypes() {
			row.Share[t] = float64(counts[t]) / float64(cat.Size())
			if counts[t] > 0 {
				row.RemainingShare[t] = float64(warm.RemainingPerType[t]) / float64(counts[t])
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render prints the table.
func (r Table2Result) Render() string {
	header := []string{"Processor"}
	for _, t := range hpc.AllEventTypes() {
		header = append(header, t.Code())
	}
	header = append(header, "remaining")
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		cells := []string{row.Processor}
		for _, t := range hpc.AllEventTypes() {
			cells = append(cells, fmt.Sprintf("%s (%s)",
				pct(row.Share[t]), pct(row.RemainingShare[t])))
		}
		cells = append(cells, fmt.Sprintf("%d", row.RemainingTotal))
		rows = append(rows, cells)
	}
	return "Table II: event type distribution, (survival after warm-up)\n" +
		table(header, rows)
}

// Table3Row is one processor of paper Table III.
type Table3Row struct {
	Processor string
	Cleanup   time.Duration
	fuzzer.StepTiming
	// GadgetsTried counts the candidates sampled and Throughput samples
	// per second; GadgetsMeasured counts those run on a measuring bench.
	// The paper executes 11.6M gadgets at ~250k/s on native hardware.
	GadgetsTried    int
	GadgetsMeasured int
	Throughput      float64
	LegalVariants   int
}

// Table3Result reproduces paper Table III: per-step fuzzing time.
type Table3Result struct {
	Rows []Table3Row
}

// Table3 runs the cleanup and a sampled fuzzing campaign on both vendor
// specifications and reports per-step wall-clock.
func Table3(sc Scale) (Table3Result, error) {
	var out Table3Result
	fcfg, err := sc.fuzzerConfig(sc.FuzzCandidates)
	if err != nil {
		return Table3Result{}, err
	}
	type vendor struct {
		name  string
		spec  *isa.Spec
		feats isa.CPUFeatures
		cat   *hpc.Catalog
	}
	for _, v := range []vendor{
		{"Intel Xeon E5-1650", isa.SpecIntelXeonE5(1), isa.IntelXeonE5Features(), hpc.NewIntelXeonE51650Catalog(1)},
		{"AMD EPYC 7252", isa.SpecAMDEpyc(1), isa.AMDEpycFeatures(), hpc.NewAMDEpyc7252Catalog(1)},
	} {
		cleanStart := time.Now()
		clean := isa.Cleanup(v.spec, v.feats)
		cleanElapsed := time.Since(cleanStart)

		fz, err := fuzzer.New(clean.Legal, fcfg)
		if err != nil {
			return Table3Result{}, err
		}
		var events []*hpc.Event
		for _, name := range []string{"RETIRED_UOPS", "LS_DISPATCH",
			"MAB_ALLOCATION_BY_PIPE", "DATA_CACHE_REFILLS_FROM_SYSTEM"} {
			events = append(events, v.cat.MustByName(name))
		}
		start := time.Now()
		res, err := fz.Fuzz(events)
		if err != nil {
			return Table3Result{}, err
		}
		elapsed := time.Since(start)
		throughput := float64(res.CandidatesTried) / elapsed.Seconds()
		out.Rows = append(out.Rows, Table3Row{
			Processor:       v.name,
			Cleanup:         cleanElapsed,
			StepTiming:      res.Timing,
			GadgetsTried:    res.CandidatesTried,
			GadgetsMeasured: res.CandidatesMeasured,
			Throughput:      throughput,
			LegalVariants:   len(clean.Legal),
		})
	}
	return out, nil
}

// Render prints the table.
func (r Table3Result) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Processor,
			row.Cleanup.String(),
			row.GenerateExec.String(),
			row.Confirmation.String(),
			row.Filtering.String(),
			fmt.Sprintf("%d", row.GadgetsTried),
			fmt.Sprintf("%d", row.GadgetsMeasured),
			fmt.Sprintf("%.0f/s", row.Throughput),
		})
	}
	return "Table III: fuzzing step time (sampled campaign; paper executes the full 11.6M-gadget product)\n" +
		table([]string{"Processor", "Cleanup", "Gen+Exec", "Confirm", "Filter", "Sampled", "Measured", "Sampled/s"}, rows)
}
