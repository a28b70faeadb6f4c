package daemontest

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"github.com/repro/aegis/internal/daemon"
	"github.com/repro/aegis/internal/telemetry/flight"
)

// mixedScenario scripts every daemon feature in one run: base tenants,
// mid-run attach, graceful detach, a kill with queued work, a valid and
// an invalid reload, and submit bursts that overflow the queues.
func mixedScenario(seed uint64) Scenario {
	eps := 2.0
	bad := -1.0
	return Scenario{
		Seed:            seed,
		Ticks:           40,
		Tenants:         8,
		Secrets:         3,
		LoadPerTick:     2,
		QueueCapacity:   8,
		MaxItemsPerTick: 3,
		Ops: []Op{
			{AtTick: 5, Kind: OpSubmit, Tenant: BaseTenantName(0), Jobs: 12},
			{AtTick: 8, Kind: OpAttach, Tenant: "late", App: "keystroke", Secrets: 5},
			{AtTick: 10, Kind: OpSubmit, Tenant: BaseTenantName(3), Jobs: 20},
			{AtTick: 12, Kind: OpReload, Reload: daemon.Tunables{Mechanism: daemon.MechanismDStar, Epsilon: &eps}},
			{AtTick: 13, Kind: OpReload, Reload: daemon.Tunables{Epsilon: &bad}},
			{AtTick: 15, Kind: OpKill, Tenant: BaseTenantName(1)},
			{AtTick: 20, Kind: OpDetach, Tenant: BaseTenantName(2)},
			{AtTick: 30, Kind: OpSubmit, Tenant: "late", Jobs: 9},
		},
	}
}

// checkFunnels asserts every tenant's funnel reconciles
// (enqueued == processed + queue depth, with sheds accounted separately
// against offered work) and that the protection report's own tick funnel
// reconciles too.
func checkFunnels(t *testing.T, res *Result) {
	t.Helper()
	for name, st := range res.Final {
		if st.Enqueued != st.Processed+int64(st.QueueDepth) {
			t.Errorf("tenant %s funnel: enqueued=%d processed=%d depth=%d",
				name, st.Enqueued, st.Processed, st.QueueDepth)
		}
		p := st.Protection
		if p.Ticks != p.InjectedTicks+p.ZeroDrawTicks+p.NoInjectionTicks+p.DegradedTicks {
			t.Errorf("tenant %s protection funnel: %+v", name, p)
		}
	}
}

// TestScenarioReplayByteIdentical is the determinism tentpole: the same
// scenario replayed at parallelism 1, 4 and GOMAXPROCS produces a
// byte-identical daemon flight journal.
func TestScenarioReplayByteIdentical(t *testing.T) {
	sc := mixedScenario(42)
	base, err := Run(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if base.Status.Tick != sc.Ticks {
		t.Fatalf("ran %d ticks, want %d", base.Status.Tick, sc.Ticks)
	}
	if len(base.Journal) == 0 || base.Status.JournalRecords == 0 {
		t.Fatal("scenario produced an empty journal")
	}
	checkFunnels(t, base)
	for _, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		res, err := Run(sc, par)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if res.Journal != base.Journal {
			t.Errorf("journal at parallelism %d differs from serial run (%d vs %d bytes)",
				par, len(res.Journal), len(base.Journal))
		}
		if res.Status != base.Status {
			t.Errorf("status at parallelism %d differs: %+v vs %+v", par, res.Status, base.Status)
		}
	}
}

// TestScenarioHundredTenants drives the ISSUE's scale target: 120
// concurrent tenants stepping in parallel, byte-identical with the serial
// run, every funnel reconciled.
func TestScenarioHundredTenants(t *testing.T) {
	sc := Scenario{
		Seed:            7,
		Ticks:           25,
		Tenants:         120,
		Secrets:         2,
		LoadPerTick:     1,
		QueueCapacity:   4,
		MaxItemsPerTick: 2,
		TickBudget:      300,
	}
	par, err := Run(sc, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	if par.Status.Tenants != 120 || len(par.Live) != 120 {
		t.Fatalf("live tenants = %d, want 120", par.Status.Tenants)
	}
	for _, st := range par.Live {
		if st.State != "protecting" {
			t.Fatalf("tenant %s state = %s, want protecting", st.Name, st.State)
		}
		if st.Ticks != sc.Ticks {
			t.Fatalf("tenant %s ran %d ticks, want %d", st.Name, st.Ticks, sc.Ticks)
		}
	}
	checkFunnels(t, par)
	serial, err := Run(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if par.Journal != serial.Journal {
		t.Fatal("120-tenant journal differs between parallel and serial replay")
	}
	if par.Status != serial.Status {
		t.Fatalf("120-tenant status differs: %+v vs %+v", par.Status, serial.Status)
	}
}

// TestScenarioJournalContents asserts the journal narrates the scripted
// lifecycle: attach/detach/replan/reject records where the script put
// them, and one summary per tick.
func TestScenarioJournalContents(t *testing.T) {
	res, err := Run(mixedScenario(42), 4)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[flight.Code]int{}
	summaries := 0
	var lastSummaryTick int64
	for _, rec := range res.Records {
		counts[rec.Code]++
		if rec.Code == flight.CodeDaemonSummary {
			summaries++
			if rec.Tick <= lastSummaryTick {
				t.Fatalf("summaries out of order: tick %d after %d", rec.Tick, lastSummaryTick)
			}
			lastSummaryTick = rec.Tick
		}
	}
	if summaries != 40 {
		t.Errorf("journal has %d tick summaries, want 40", summaries)
	}
	if got := counts[flight.CodeTenantAttach]; got != 9 { // 8 base + "late"
		t.Errorf("attach records = %d, want 9", got)
	}
	if got := counts[flight.CodeTenantDetach]; got != 2 { // kill t001 + drained t002
		t.Errorf("detach records = %d, want 2", got)
	}
	if got := counts[flight.CodeTenantDrain]; got != 1 {
		t.Errorf("drain records = %d, want 1", got)
	}
	if got := counts[flight.CodeDaemonReload]; got != 1 {
		t.Errorf("reload records = %d, want 1", got)
	}
	if got := counts[flight.CodeDaemonReloadReject]; got != 1 {
		t.Errorf("reload-reject incidents = %d, want 1", got)
	}
	// The mechanism reload re-planned all 9 live-at-the-time tenants.
	if got := counts[flight.CodeTenantReplan]; got != 9 {
		t.Errorf("replan records = %d, want 9", got)
	}
	// The 12-job burst into t000 (queue 8, some already queued by the load
	// generator) must have shed, and the queue overflow sheds must appear.
	if counts[flight.CodeTenantShed] == 0 {
		t.Error("no shed incidents despite overflowing submits")
	}
	for name, st := range res.Final {
		if st.PlanGeneration != 1 {
			t.Errorf("tenant %s plan generation = %d after reload, want 1", name, st.PlanGeneration)
		}
	}
}

// TestShedsNeverSilent cross-checks the journal against every tenant's
// funnel: the per-tenant shed total equals the sum of its journaled shed
// incidents, so no shed can hide from an operator tailing /flight.
func TestShedsNeverSilent(t *testing.T) {
	res, err := Run(mixedScenario(99), 4)
	if err != nil {
		t.Fatal(err)
	}
	shedByID := map[int]int64{}
	for _, rec := range res.Records {
		if rec.Code == flight.CodeTenantShed {
			if !rec.Incident {
				t.Fatalf("shed record at tick %d is not flagged as an incident", rec.Tick)
			}
			shedByID[int(rec.A)] += int64(rec.B)
		}
	}
	var funnelTotal int64
	for name, st := range res.Final {
		if got := shedByID[st.ID]; got != st.Shed {
			t.Errorf("tenant %s: journal sheds %d != funnel sheds %d", name, got, st.Shed)
		}
		funnelTotal += st.Shed
	}
	if funnelTotal != res.Status.Shed {
		t.Errorf("per-tenant sheds sum to %d, daemon total is %d", funnelTotal, res.Status.Shed)
	}
}

// TestFaultSoakDegradationNeverSilent is the fault-injected soak: heavy
// fault rates over tenants under load, asserting every degraded tenant
// tick is journaled as an incident attributed to the right tenant — no
// tenant's degradation is silent.
func TestFaultSoakDegradationNeverSilent(t *testing.T) {
	sc := Scenario{
		Seed:            1234,
		Ticks:           60,
		Tenants:         12,
		Secrets:         2,
		LoadPerTick:     3,
		QueueCapacity:   6,
		MaxItemsPerTick: 2,
		Faults:          "heavy",
	}
	res, err := Run(sc, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	degradedByID := map[int]int64{}
	for _, rec := range res.Records {
		if rec.Code == flight.CodeTenantDegraded {
			if !rec.Incident {
				t.Fatal("degradation record not flagged as an incident")
			}
			if rec.Sub == flight.CodeNone {
				t.Fatal("degradation incident carries no reason subcode")
			}
			degradedByID[int(rec.A)]++
		}
	}
	var total int64
	anyDegraded := false
	for name, st := range res.Final {
		if got := degradedByID[st.ID]; got != st.DegradedTicks {
			t.Errorf("tenant %s: journal degradations %d != funnel %d", name, got, st.DegradedTicks)
		}
		if st.DegradedTicks > 0 {
			anyDegraded = true
		}
		if st.Protection.DegradedTicks != st.DegradedTicks {
			t.Errorf("tenant %s: protection report degraded=%d, daemon counted %d",
				name, st.Protection.DegradedTicks, st.DegradedTicks)
		}
		total += st.DegradedTicks
	}
	if !anyDegraded {
		t.Fatal("heavy fault preset degraded nothing in 60 ticks — soak is vacuous")
	}
	if total != res.Status.DegradedTenantTicks {
		t.Errorf("degraded tenant ticks: tenants sum %d, daemon %d", total, res.Status.DegradedTenantTicks)
	}
	checkFunnels(t, res)
	// Determinism holds under faults too: the schedule is seed-derived.
	again, err := Run(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if again.Journal != res.Journal {
		t.Fatal("fault-soak journal not replayable")
	}
}

// TestDaemonConcurrentLifecycle hammers one daemon from many goroutines —
// a stepper plus attach/detach/submit/reload/status writers — and relies
// on the race detector (make race) to catch locking bugs. Afterwards the
// daemon must still reconcile.
func TestDaemonConcurrentLifecycle(t *testing.T) {
	cfg := BaseConfig(555)
	cfg.QueueCapacity = 4
	cfg.Parallelism = 4
	d, err := daemon.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	wg.Add(workers + 1)
	go func() { // the tick loop
		defer wg.Done()
		for i := 0; i < 60; i++ {
			d.Step()
		}
	}()
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("c%02d", w)
			for i := 0; i < 20; i++ {
				switch i % 5 {
				case 0:
					_ = d.Attach(daemon.AttachSpec{Name: name, App: "website"})
				case 1:
					_, _ = d.Submit(name, 3)
				case 2:
					_, _ = d.TenantStatus(name)
					_ = d.Status()
					_ = d.Statuses()
				case 3:
					eps := 1 + float64(w)
					_ = d.Reload(daemon.Tunables{Epsilon: &eps})
				case 4:
					_ = d.Detach(name, w%2 == 0)
				}
			}
		}(w)
	}
	wg.Wait()
	// Drain whatever survived and check the books still balance.
	for i := 0; i < 4; i++ {
		d.Step()
	}
	st := d.Status()
	if st.Tick != 64 {
		t.Fatalf("tick = %d, want 64", st.Tick)
	}
	var tenantTotal int64
	for _, ts := range d.Statuses() {
		tenantTotal += ts.Enqueued - ts.Processed - int64(ts.QueueDepth)
	}
	if tenantTotal != 0 {
		t.Fatalf("live tenant funnels do not reconcile (off by %d)", tenantTotal)
	}
	if st.Enqueued < st.Processed {
		t.Fatalf("daemon funnel inverted: %+v", st)
	}
	if st.Attached < int64(st.Tenants) {
		t.Fatalf("attach ledger: attached=%d live=%d", st.Attached, st.Tenants)
	}
}
