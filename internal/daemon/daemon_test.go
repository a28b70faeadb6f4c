package daemon_test

import (
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"github.com/repro/aegis/internal/daemon"
	"github.com/repro/aegis/internal/daemon/daemontest"
	"github.com/repro/aegis/internal/ops"
	"github.com/repro/aegis/internal/telemetry"
	"github.com/repro/aegis/internal/telemetry/flight"
)

// newDaemon builds a small test daemon around the harness's synthetic
// plan.
func newDaemon(t *testing.T, mutate func(*daemon.Config)) *daemon.Daemon {
	t.Helper()
	cfg := daemontest.BaseConfig(101)
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := daemon.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidatesPlan(t *testing.T) {
	if _, err := daemon.New(daemon.Config{}); err == nil {
		t.Fatal("New accepted a config without a segment")
	}
	cfg := daemontest.BaseConfig(1)
	cfg.Mechanism = "nonsense"
	if _, err := daemon.New(cfg); !errors.Is(err, daemon.ErrBadTunables) {
		t.Fatalf("New with unknown mechanism: got %v, want ErrBadTunables", err)
	}
}

// TestTenantLifecycle walks one tenant through the full state machine:
// Attaching → Protecting → Draining → gone, with the transitions visible
// in TenantStatus and the daemon journal.
func TestTenantLifecycle(t *testing.T) {
	d := newDaemon(t, nil)
	if err := d.Attach(daemon.AttachSpec{Name: "alpha"}); err != nil {
		t.Fatal(err)
	}
	if err := d.Attach(daemon.AttachSpec{Name: "alpha"}); !errors.Is(err, daemon.ErrTenantExists) {
		t.Fatalf("duplicate attach: got %v, want ErrTenantExists", err)
	}
	st, err := d.TenantStatus("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "attaching" {
		t.Fatalf("pre-tick state = %q, want attaching", st.State)
	}
	d.Step()
	if st, _ = d.TenantStatus("alpha"); st.State != "protecting" {
		t.Fatalf("post-tick state = %q, want protecting", st.State)
	}
	if st.Ticks != 1 || st.Protection.Ticks != 1 {
		t.Fatalf("tick funnel: tenant ticks=%d protection ticks=%d, want 1/1", st.Ticks, st.Protection.Ticks)
	}
	// Graceful detach: drains (empty queue → removed at the next barrier).
	if err := d.Detach("alpha", false); err != nil {
		t.Fatal(err)
	}
	if st, _ = d.TenantStatus("alpha"); st.State != "draining" {
		t.Fatalf("state after graceful detach = %q, want draining", st.State)
	}
	if _, err := d.Submit("alpha", 1); !errors.Is(err, daemon.ErrNotAccepting) {
		t.Fatalf("submit while draining: got %v, want ErrNotAccepting", err)
	}
	d.Step()
	if _, err := d.TenantStatus("alpha"); !errors.Is(err, daemon.ErrNoTenant) {
		t.Fatalf("status after drain completed: got %v, want ErrNoTenant", err)
	}
	dst := d.Status()
	if dst.Attached != 1 || dst.Detached != 1 || dst.Tenants != 0 {
		t.Fatalf("daemon totals = %+v, want attached=1 detached=1 tenants=0", dst)
	}
	wantCodes := []flight.Code{
		flight.CodeTenantAttach, flight.CodeDaemonSummary,
		flight.CodeTenantDrain, flight.CodeTenantDetach, flight.CodeDaemonSummary,
	}
	recs := d.Journal().Snapshot()
	if len(recs) != len(wantCodes) {
		t.Fatalf("journal has %d records, want %d", len(recs), len(wantCodes))
	}
	for i, rec := range recs {
		if rec.Code != wantCodes[i] {
			t.Errorf("journal[%d] = %s, want %s", i, rec.Code, wantCodes[i])
		}
	}
}

// TestBackpressureShedAndRecover is the backpressure unit test: a full
// queue sheds (counted in the funnel, the tenant-labelled metric and the
// journal), flips the readiness gate, and the gate reopens once the
// backlog drains.
func TestBackpressureShedAndRecover(t *testing.T) {
	d := newDaemon(t, func(cfg *daemon.Config) {
		cfg.QueueCapacity = 4
		cfg.MaxItemsPerTick = 2
	})
	if err := d.Attach(daemon.AttachSpec{Name: "bp"}); err != nil {
		t.Fatal(err)
	}
	shedBefore := telemetry.C("daemon_events_shed_total", telemetry.L("tenant", "bp")).Value()
	accepted, err := d.Submit("bp", 10)
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 4 {
		t.Fatalf("accepted %d of 10 into a capacity-4 queue, want 4", accepted)
	}
	st, _ := d.TenantStatus("bp")
	if st.Shed != 6 || st.QueueDepth != 4 {
		t.Fatalf("tenant funnel after burst: shed=%d depth=%d, want 6/4", st.Shed, st.QueueDepth)
	}
	shedDelta := telemetry.C("daemon_events_shed_total", telemetry.L("tenant", "bp")).Value() - shedBefore
	if shedDelta != 6 {
		t.Fatalf("daemon_events_shed_total{tenant=bp} grew by %v, want 6", shedDelta)
	}
	if !d.Status().Overloaded {
		t.Fatal("daemon not overloaded with a saturated queue")
	}
	if got := d.ReadyProbe().Check(); got.State != ops.StateFailed {
		t.Fatalf("readiness probe while overloaded = %v, want failed", got.State)
	}
	// The shed is journaled — never silent.
	found := false
	for _, rec := range d.Journal().Snapshot() {
		if rec.Code == flight.CodeTenantShed && rec.Incident && rec.B == 6 {
			found = true
		}
	}
	if !found {
		t.Fatal("no tenant:shed incident journaled for the burst")
	}
	// Drain: 2 items/tick → empty after 2 ticks; the gate recovers.
	for i := 0; i < 2; i++ {
		d.Step()
	}
	st, _ = d.TenantStatus("bp")
	if st.QueueDepth != 0 || st.Processed != 4 {
		t.Fatalf("after drain: depth=%d processed=%d, want 0/4", st.QueueDepth, st.Processed)
	}
	if d.Status().Overloaded {
		t.Fatal("daemon still overloaded after the backlog drained")
	}
	if got := d.ReadyProbe().Check(); got.State != ops.StateOK {
		t.Fatalf("readiness probe after drain = %v, want ok", got.State)
	}
	// Funnel reconciliation: enqueued == processed + depth.
	if st.Enqueued != st.Processed+int64(st.QueueDepth) {
		t.Fatalf("funnel: enqueued=%d processed=%d depth=%d", st.Enqueued, st.Processed, st.QueueDepth)
	}
}

// TestKillDetachShedsQueue verifies a kill-detach sheds the queued work
// loudly: counted, journaled as an incident, and reflected in totals.
func TestKillDetachShedsQueue(t *testing.T) {
	d := newDaemon(t, func(cfg *daemon.Config) { cfg.QueueCapacity = 8 })
	if err := d.Attach(daemon.AttachSpec{Name: "kill"}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Submit("kill", 5); err != nil {
		t.Fatal(err)
	}
	if err := d.Detach("kill", true); err != nil {
		t.Fatal(err)
	}
	if err := d.Detach("kill", true); !errors.Is(err, daemon.ErrNoTenant) {
		t.Fatalf("double kill: got %v, want ErrNoTenant", err)
	}
	if got := d.Status().Shed; got != 5 {
		t.Fatalf("daemon shed total after kill = %d, want 5", got)
	}
	shed := false
	for _, rec := range d.Journal().Snapshot() {
		if rec.Code == flight.CodeTenantShed && rec.Incident && rec.B == 5 {
			shed = true
		}
	}
	if !shed {
		t.Fatal("kill-detach shed 5 items without journaling an incident")
	}
}

// TestReloadAtomicity is the reload unit test: an invalid delta is
// rejected whole (old config stays live, reject counted and journaled);
// a valid delta stages and applies at the next tick boundary, re-planning
// every tenant.
func TestReloadAtomicity(t *testing.T) {
	d := newDaemon(t, nil)
	if err := d.Attach(daemon.AttachSpec{Name: "r0"}); err != nil {
		t.Fatal(err)
	}
	d.Step()
	before := d.Status().Settings

	badEps := -3.0
	goodClip := 5000.0
	err := d.Reload(daemon.Tunables{Epsilon: &badEps, ClipBound: &goodClip})
	if !errors.Is(err, daemon.ErrBadTunables) {
		t.Fatalf("invalid reload: got %v, want ErrBadTunables", err)
	}
	d.Step()
	after := d.Status()
	if after.Settings != before {
		t.Fatalf("invalid reload changed settings: %+v -> %+v", before, after.Settings)
	}
	if after.ReloadRejects != 1 || after.Reloads != 0 {
		t.Fatalf("reject counters = reloads %d rejects %d, want 0/1", after.Reloads, after.ReloadRejects)
	}
	st, _ := d.TenantStatus("r0")
	if st.PlanGeneration != 0 {
		t.Fatalf("invalid reload re-planned the tenant (gen %d)", st.PlanGeneration)
	}

	// Valid reload: staged now, applied at the next Step.
	eps := 2.5
	if err := d.Reload(daemon.Tunables{Mechanism: daemon.MechanismDStar, Epsilon: &eps}); err != nil {
		t.Fatal(err)
	}
	mid := d.Status()
	if !mid.PendingReload || mid.Settings.Mechanism != before.Mechanism {
		t.Fatalf("valid reload applied before the tick boundary: %+v", mid)
	}
	d.Step()
	got := d.Status()
	if got.PendingReload || got.Settings.Mechanism != daemon.MechanismDStar || got.Settings.Epsilon != 2.5 {
		t.Fatalf("reload not applied at tick boundary: %+v", got.Settings)
	}
	st, _ = d.TenantStatus("r0")
	if st.PlanGeneration != 1 {
		t.Fatalf("tenant plan generation = %d after mechanism change, want 1", st.PlanGeneration)
	}
	replans, rejects := 0, 0
	for _, rec := range d.Journal().Snapshot() {
		switch rec.Code {
		case flight.CodeTenantReplan:
			replans++
		case flight.CodeDaemonReloadReject:
			rejects++
		}
	}
	if replans != 1 || rejects != 1 {
		t.Fatalf("journal has %d replans / %d rejects, want 1/1", replans, rejects)
	}
}

// TestReloadQueueResize verifies a queue-capacity shrink sheds the
// overflow (loudly) and the funnel still reconciles.
func TestReloadQueueResize(t *testing.T) {
	d := newDaemon(t, func(cfg *daemon.Config) {
		cfg.QueueCapacity = 8
		cfg.MaxItemsPerTick = 1
	})
	if err := d.Attach(daemon.AttachSpec{Name: "rq"}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Submit("rq", 8); err != nil {
		t.Fatal(err)
	}
	newCap := 3
	if err := d.Reload(daemon.Tunables{QueueCapacity: &newCap}); err != nil {
		t.Fatal(err)
	}
	d.Step() // resize applies, sheds 5, then drains 1
	st, _ := d.TenantStatus("rq")
	if st.QueueCapacity != 3 {
		t.Fatalf("queue capacity = %d after resize, want 3", st.QueueCapacity)
	}
	if st.Shed != 5 {
		t.Fatalf("resize shed %d, want 5", st.Shed)
	}
	if st.Enqueued != st.Processed+st.Shed+int64(st.QueueDepth) {
		t.Fatalf("funnel broke across resize: %+v", st)
	}
}

// TestLoadGeneratorFunnel runs the internal load generator over capacity
// and checks the end-to-end funnel reconciliation.
func TestLoadGeneratorFunnel(t *testing.T) {
	d := newDaemon(t, func(cfg *daemon.Config) {
		cfg.LoadPerTick = 4
		cfg.MaxItemsPerTick = 2
		cfg.QueueCapacity = 6
	})
	if err := d.Attach(daemon.AttachSpec{Name: "load"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		d.Step()
	}
	st, _ := d.TenantStatus("load")
	if st.Shed == 0 {
		t.Fatal("overdriven tenant shed nothing")
	}
	if st.Enqueued+st.Shed != 40 {
		t.Fatalf("load generator offered %d items, want 40", st.Enqueued+st.Shed)
	}
	if st.Enqueued != st.Processed+int64(st.QueueDepth) {
		t.Fatalf("funnel: enqueued=%d processed=%d depth=%d", st.Enqueued, st.Processed, st.QueueDepth)
	}
	// Load-generator sheds are journaled tick by tick; their sum matches
	// the funnel.
	var journaled int64
	for _, rec := range d.Journal().Snapshot() {
		if rec.Code == flight.CodeTenantShed {
			journaled += int64(rec.B)
		}
	}
	if journaled != st.Shed {
		t.Fatalf("journal sheds %d != funnel sheds %d", journaled, st.Shed)
	}
}

// daemonMetricLine matches the daemon's Prometheus exposition lines,
// keeping tenant-labelled series only for this test's own tenants (the
// registry is process-wide and other tests attach their own).
var daemonMetricLine = regexp.MustCompile(`^daemon_[a-z_]+(\{[^}]*\})? `)

func filterDaemonMetrics(out string) string {
	var lines []string
	for _, line := range strings.Split(out, "\n") {
		if !daemonMetricLine.MatchString(line) {
			continue
		}
		if strings.Contains(line, "tenant=") && !strings.Contains(line, `tenant="golden-`) {
			continue
		}
		// The ctl-request counter only exists once the API tests ran; keep
		// the golden independent of which tests share the binary.
		if strings.HasPrefix(line, "daemon_ctl_requests_total") {
			continue
		}
		idx := strings.LastIndex(line, " ")
		lines = append(lines, line[:idx]+" N")
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// TestDaemonPromGolden pins the daemon metric names and label shapes
// operators alert on. Regenerate with
// AEGIS_UPDATE_GOLDEN=1 go test ./internal/daemon/.
func TestDaemonPromGolden(t *testing.T) {
	d := newDaemon(t, func(cfg *daemon.Config) {
		cfg.QueueCapacity = 2
		cfg.MaxItemsPerTick = 1
	})
	for _, name := range []string{"golden-a", "golden-b"} {
		if err := d.Attach(daemon.AttachSpec{Name: name}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Submit("golden-a", 5); err != nil { // forces a shed
		t.Fatal(err)
	}
	eps := 2.0
	if err := d.Reload(daemon.Tunables{Epsilon: &eps}); err != nil {
		t.Fatal(err)
	}
	if err := d.Reload(daemon.Tunables{Mechanism: "bogus"}); err == nil {
		t.Fatal("bogus reload accepted")
	}
	for i := 0; i < 4; i++ {
		d.Step()
	}
	if err := d.Detach("golden-b", true); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := telemetry.Default().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := filterDaemonMetrics(sb.String())
	golden := filepath.Join("testdata", "daemon_prom.golden")
	if os.Getenv("AEGIS_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with AEGIS_UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("daemon metric exposition drifted from golden.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
