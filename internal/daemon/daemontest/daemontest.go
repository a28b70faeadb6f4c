// Package daemontest is the deterministic end-to-end harness for the
// aegisd daemon: scripted scenarios (attach N tenants, step K ticks,
// kill / reload / detach / submit at fixed ticks) executed against a real
// Daemon built around a synthetic gadget plan, returning the daemon's
// byte-exact flight journal plus every funnel the assertions need.
//
// Because the daemon's clock is the injected Step call and every seed is
// derived from (Scenario.Seed, tenant name), running the same scenario
// twice — at any parallelism — produces a byte-identical journal. The
// e2e tests assert exactly that across parallelism 1 / 4 / GOMAXPROCS.
package daemontest

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"github.com/repro/aegis/internal/daemon"
	"github.com/repro/aegis/internal/faultinject"
	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/telemetry"
	"github.com/repro/aegis/internal/telemetry/flight"
)

// PlanSegment returns the synthetic 4-variant stacked gadget segment the
// harness protects tenants with (load/flush-class variants, the same
// shape the repo's allocation gates use). Using a fixed plan keeps
// scenario setup free of a fuzz campaign without changing anything the
// daemon itself does.
func PlanSegment() []isa.Variant {
	legal := isa.Cleanup(isa.SpecAMDEpyc(1), isa.AMDEpycFeatures()).Legal
	var seg []isa.Variant
	for _, v := range legal {
		if v.Class == isa.ClassLoad || v.Class == isa.ClassFlush {
			seg = append(seg, v)
		}
		if len(seg) == 4 {
			break
		}
	}
	if len(seg) == 0 {
		panic("daemontest: no load/flush variants in the legal ISA list")
	}
	return seg
}

// BaseConfig returns a daemon config built around the synthetic plan
// with budgets sized for tests: small VMs, a modest tick budget, and a
// journal large enough that scenario assertions never fight ring wrap.
func BaseConfig(seed uint64) daemon.Config {
	return daemon.Config{
		Segment:         PlanSegment(),
		RefEvent:        hpc.NewAMDEpyc7252Catalog(1).MustByName("RETIRED_UOPS"),
		Seed:            seed,
		TickBudget:      400,
		VMMemoryBytes:   16 << 10,
		JournalCapacity: 1 << 15,
	}
}

// OpKind names a scripted scenario operation.
type OpKind string

// Scenario operations.
const (
	// OpAttach attaches Op.Tenant (app/secrets from the op).
	OpAttach OpKind = "attach"
	// OpDetach starts a graceful drain of Op.Tenant.
	OpDetach OpKind = "detach"
	// OpKill tears Op.Tenant down immediately, shedding its queue.
	OpKill OpKind = "kill"
	// OpSubmit submits Op.Jobs work items to Op.Tenant.
	OpSubmit OpKind = "submit"
	// OpReload stages Op.Reload; invalid deltas exercise the reject path
	// and are not scenario errors.
	OpReload OpKind = "reload"
)

// Op is one scripted operation, applied immediately before the AtTick-th
// Step (AtTick <= 1 means before the first). Ops sharing a tick apply in
// listed order.
type Op struct {
	AtTick  int64
	Kind    OpKind
	Tenant  string
	App     string
	Secrets int
	Jobs    int
	Reload  daemon.Tunables
}

// Scenario scripts one daemon run.
type Scenario struct {
	// Seed derives every stochastic choice in the run.
	Seed uint64
	// Ticks is the number of Step calls.
	Ticks int64
	// Tenants attaches this many base tenants (named t000, t001, ...)
	// before the first tick.
	Tenants int
	// Secrets bounds each base tenant's secret alphabet (0 = default).
	Secrets int
	// LoadPerTick, QueueCapacity, MaxItemsPerTick override the daemon
	// defaults when non-zero.
	LoadPerTick     int
	QueueCapacity   int
	MaxItemsPerTick int
	// TickBudget overrides BaseConfig's per-tenant budget when non-zero.
	TickBudget int
	// Faults names a faultinject preset ("", "off", "light", "heavy").
	Faults string
	// Ops are the scripted mid-run operations.
	Ops []Op
	// Check, when set, runs after every Step, at the tick barrier; an
	// error aborts the run.
	Check func(d *daemon.Daemon) error
}

// Result is everything a scenario run exposes for assertions.
type Result struct {
	// Journal is the daemon's full flight journal as aegis-flight/v1
	// JSONL — the byte-identity surface of the determinism tests.
	Journal string
	// Status is the daemon status after the last tick.
	Status daemon.Status
	// Live holds the still-attached tenants in attach order.
	Live []daemon.TenantStatus
	// Final holds the last observed status of every tenant that ever
	// attached: live tenants at end-of-run, killed/drained tenants as of
	// the moment their detach op applied.
	Final map[string]daemon.TenantStatus
	// Records is the daemon journal decoded for content assertions.
	Records []flight.Record
	// Daemon is the live daemon, for follow-on assertions (readiness
	// gate, journal recorder, further steps).
	Daemon *daemon.Daemon
}

// BaseTenantName returns the canonical name of base tenant i.
func BaseTenantName(i int) string { return fmt.Sprintf("t%03d", i) }

// Run executes a scenario at the given parallelism.
func Run(sc Scenario, parallelism int) (*Result, error) {
	cfg := BaseConfig(sc.Seed)
	cfg.Parallelism = parallelism
	cfg.LoadPerTick = sc.LoadPerTick
	cfg.QueueCapacity = sc.QueueCapacity
	cfg.MaxItemsPerTick = sc.MaxItemsPerTick
	if sc.TickBudget > 0 {
		cfg.TickBudget = sc.TickBudget
	}
	if sc.Faults != "" {
		fcfg, err := faultinject.Preset(sc.Faults, sc.Seed)
		if err != nil {
			return nil, err
		}
		cfg.Faults = fcfg
	}
	d, err := daemon.New(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{Daemon: d, Final: make(map[string]daemon.TenantStatus)}
	for i := 0; i < sc.Tenants; i++ {
		if err := d.Attach(daemon.AttachSpec{Name: BaseTenantName(i), Secrets: sc.Secrets}); err != nil {
			return nil, err
		}
	}
	// Stable-sort ops by tick, preserving listed order within a tick.
	ops := append([]Op(nil), sc.Ops...)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].AtTick < ops[j].AtTick })
	next := 0
	for tick := int64(1); tick <= sc.Ticks; tick++ {
		for next < len(ops) && ops[next].AtTick <= tick {
			if err := apply(d, ops[next], res); err != nil {
				return nil, fmt.Errorf("daemontest: op %d (%s %q at tick %d): %w",
					next, ops[next].Kind, ops[next].Tenant, tick, err)
			}
			next++
		}
		d.Step()
		if sc.Check != nil {
			if err := sc.Check(d); err != nil {
				return nil, fmt.Errorf("daemontest: tick %d: %w", tick, err)
			}
		}
	}
	for _, st := range d.Statuses() {
		res.Final[st.Name] = st
	}
	res.Live = d.Statuses()
	res.Status = d.Status()
	var sb strings.Builder
	if err := d.Journal().WriteJSONL(&sb, flight.DumpOptions{}); err != nil {
		return nil, err
	}
	res.Journal = sb.String()
	res.Records = d.Journal().Snapshot()
	return res, nil
}

// CheckJobFunnel reports the first live tenant whose hand-offs do not
// reconcile: its processed_total must equal the jobs its runner
// completed, the one job it is running and the items still backlogged,
// no job may have failed to build, and daemon_backlog_jobs{tenant} must
// show the backlog.
func CheckJobFunnel(d *daemon.Daemon) error {
	for _, st := range d.Statuses() {
		jf, err := d.TenantJobs(st.Name)
		if err != nil {
			return err
		}
		if st.Processed != jf.Completed+jf.Running+jf.Backlog || jf.Running > 1 || jf.Errors != 0 {
			return fmt.Errorf("tenant %s: processed %d, job funnel %+v", st.Name, st.Processed, jf)
		}
		if g := BacklogGauge(st.Name); g != float64(jf.Backlog) {
			return fmt.Errorf("tenant %s: daemon_backlog_jobs %v, backlog %d", st.Name, g, jf.Backlog)
		}
	}
	return nil
}

// BacklogGauge reads daemon_backlog_jobs{tenant}.
func BacklogGauge(tenant string) float64 {
	return telemetry.G("daemon_backlog_jobs", telemetry.L("tenant", tenant)).Value()
}

// apply executes one scripted op, snapshotting tenant status before a
// detach so funnels of dead tenants stay assertable.
func apply(d *daemon.Daemon, op Op, res *Result) error {
	switch op.Kind {
	case OpAttach:
		return d.Attach(daemon.AttachSpec{Name: op.Tenant, App: op.App, Secrets: op.Secrets})
	case OpDetach, OpKill:
		if st, err := d.TenantStatus(op.Tenant); err == nil {
			res.Final[op.Tenant] = st
		}
		return d.Detach(op.Tenant, op.Kind == OpKill)
	case OpSubmit:
		_, err := d.Submit(op.Tenant, op.Jobs)
		return err
	case OpReload:
		if err := d.Reload(op.Reload); err != nil && !errors.Is(err, daemon.ErrBadTunables) {
			// Rejected reloads are scripted on purpose (the reject path is
			// part of the journal); only unexpected errors fail the run.
			return err
		}
		return nil
	default:
		return fmt.Errorf("unknown op kind %q", op.Kind)
	}
}
