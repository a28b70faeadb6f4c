package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/repro/aegis/internal/daemon"
	"github.com/repro/aegis/internal/daemon/daemontest"
	"github.com/repro/aegis/internal/faultinject"
	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/telemetry"
	"github.com/repro/aegis/internal/telemetry/flight"
)

// aegisd's production settings. The daemon config spells them out rather
// than leaving them to daemon.New's defaults because the traced run's
// mirror tenants are built from the same numbers.
const (
	tickBudget      = 2000
	vmMemoryBytes   = 64 << 10
	queueCapacity   = 64
	maxItemsPerTick = 8
	epsilon         = 1.0
	sensitivity     = 1500.0
	clipBound       = 2e4
	tenantSecrets   = 4
	refEventName    = "RETIRED_UOPS"
)

// parallelism is the daemon's and the facade's worker fan-out, fixed at
// the reference host's nproc so runs on larger hosts compare.
const parallelism = 2

// setupRepeats is how often a run sets its workload up; setup_s is the
// median, and the repeats' output digests must agree.
const setupRepeats = 3

// fleetSpec describes one aegisd fleet workload: who is attached, how work
// arrives, and which control-path calls land between ticks.
type fleetSpec struct {
	tenants int
	// apps are assigned round-robin in attach order.
	apps        []string
	mechanism   string
	loadPerTick int
	// faults names a faultinject preset ("" is the healthy substrate).
	faults string
	// Every submitEvery ticks, submitJobs jobs go to each of submitTenants
	// live tenants through Daemon.Submit, rotating through the fleet.
	submitEvery, submitJobs, submitTenants int
	// Every churnEvery ticks the oldest tenant is kill-detached and a
	// fresh one attached.
	churnEvery int
	// warmup steps run during set-up, so guest caches and queues settle
	// before timing.
	warmup int
	// stepsPerSecond turns --seconds into a step count. It is the
	// reference host's rate when its neighbours are busy, so every commit
	// runs the same steps and a run there measures at most about
	// --seconds.
	stepsPerSecond float64
}

// The fleet workloads; README.md gives the reasons for each.
var (
	fleetSteady = fleetSpec{
		tenants: 64, apps: []string{"website"}, mechanism: daemon.MechanismLaplace,
		loadPerTick: 1, warmup: 16, stepsPerSecond: 45,
	}
	fleetChurn = fleetSpec{
		tenants: 64, apps: []string{"website", "keystroke", "dnn"}, mechanism: daemon.MechanismDStar,
		loadPerTick: 1, faults: faultinject.PresetLight,
		submitEvery: 25, submitJobs: 96, submitTenants: 8, churnEvery: 100,
		warmup: 16, stepsPerSecond: 55,
	}
	fleetIdle = fleetSpec{
		tenants: 256, apps: []string{"website"}, mechanism: daemon.MechanismLaplace,
		warmup: 16, stepsPerSecond: 20,
	}
)

// opKind names a scripted control-path call.
type opKind int

const (
	opAttach opKind = iota
	opKill
	opSubmit
)

// fleetOp is one control-path call the driver makes before a Step.
type fleetOp struct {
	kind   opKind
	tenant string
	app    string
	jobs   int
}

// fleetScript is a fleet's whole run as data: the initial attaches and,
// per tick, the calls applied before that tick's Step. The traced run
// replays the same script through the mirror.
type fleetScript struct {
	initial []fleetOp
	// ops[t] precedes Step t (1-based); len(ops) is the tick count + 1.
	ops [][]fleetOp
}

// script builds the fleet's run of the given number of ticks. Churn
// precedes submits within a tick, so a fresh tenant can receive work at
// once.
func (s fleetSpec) script(ticks int) fleetScript {
	sc := fleetScript{ops: make([][]fleetOp, ticks+1)}
	var live []string
	for i := 0; i < s.tenants; i++ {
		name := fmt.Sprintf("t%03d", i)
		sc.initial = append(sc.initial, fleetOp{kind: opAttach, tenant: name, app: s.apps[i%len(s.apps)]})
		live = append(live, name)
	}
	fresh := 0
	for t := 1; t <= ticks; t++ {
		if s.churnEvery > 0 && t%s.churnEvery == 0 && len(live) > 0 {
			name := fmt.Sprintf("c%04d", fresh)
			app := s.apps[(s.tenants+fresh)%len(s.apps)]
			fresh++
			sc.ops[t] = append(sc.ops[t],
				fleetOp{kind: opKill, tenant: live[0]},
				fleetOp{kind: opAttach, tenant: name, app: app})
			live = append(live[1:], name)
		}
		if s.submitEvery > 0 && t%s.submitEvery == 0 {
			round := t / s.submitEvery
			for j := 0; j < s.submitTenants && j < len(live); j++ {
				name := live[(round*s.submitTenants+j)%len(live)]
				sc.ops[t] = append(sc.ops[t], fleetOp{kind: opSubmit, tenant: name, jobs: s.submitJobs})
			}
		}
	}
	return sc
}

// fleetPlan is the fixed 4-variant daemontest plan fleets protect with.
func fleetPlan() ([]isa.Variant, *hpc.Event) {
	return daemontest.PlanSegment(), hpc.NewAMDEpyc7252Catalog(1).MustByName(refEventName)
}

// daemonConfig is aegisd's production configuration for the spec.
func (s fleetSpec) daemonConfig(seed uint64, plan []isa.Variant, ref *hpc.Event) (daemon.Config, error) {
	faults, err := faultinject.Preset(s.faults, seed)
	if err != nil {
		return daemon.Config{}, err
	}
	return daemon.Config{
		Segment:         plan,
		RefEvent:        ref,
		Mechanism:       s.mechanism,
		Epsilon:         epsilon,
		Sensitivity:     sensitivity,
		ClipBound:       clipBound,
		QueueCapacity:   queueCapacity,
		MaxItemsPerTick: maxItemsPerTick,
		LoadPerTick:     s.loadPerTick,
		TickBudget:      tickBudget,
		Parallelism:     parallelism,
		Seed:            seed,
		Faults:          faults,
		VMMemoryBytes:   vmMemoryBytes,
	}, nil
}

// fleet drives one daemon through its script in a closed loop: each Step
// is issued after the previous one returns.
type fleet struct {
	spec   fleetSpec
	script fleetScript
	d      *daemon.Daemon
	tick   int
	live   int
	// submitted counts the jobs the driver offered each tenant.
	submitted map[string]int64
	// killed holds each kill-detached tenant's status just before the kill.
	killed map[string]daemon.TenantStatus
	attach []time.Duration
	submit []time.Duration
	// tenantTicks counts tenant-ticks stepped, as the driver sees them.
	tenantTicks int64
	attempted   int64
	errs        []error
}

// newFleet builds the plan and the daemon and applies the initial
// attaches.
func newFleet(spec fleetSpec, seed uint64, ticks int) (*fleet, error) {
	plan, ref := fleetPlan()
	cfg, err := spec.daemonConfig(seed, plan, ref)
	if err != nil {
		return nil, err
	}
	d, err := daemon.New(cfg)
	if err != nil {
		return nil, err
	}
	f := &fleet{
		spec:      spec,
		script:    spec.script(ticks),
		d:         d,
		submitted: make(map[string]int64),
		killed:    make(map[string]daemon.TenantStatus),
	}
	for _, op := range f.script.initial {
		f.apply(op)
	}
	return f, nil
}

// apply makes one control-path call, timing attaches and submits.
func (f *fleet) apply(op fleetOp) {
	f.attempted++
	var err error
	switch op.kind {
	case opAttach:
		start := time.Now()
		err = f.d.Attach(daemon.AttachSpec{Name: op.tenant, App: op.app, Secrets: tenantSecrets})
		f.attach = append(f.attach, time.Since(start))
		if err == nil {
			f.live++
		}
	case opKill:
		var st daemon.TenantStatus
		if st, err = f.d.TenantStatus(op.tenant); err == nil {
			f.killed[op.tenant] = st
			if err = f.d.Detach(op.tenant, true); err == nil {
				f.live--
			}
		}
	case opSubmit:
		start := time.Now()
		_, err = f.d.Submit(op.tenant, op.jobs)
		f.submit = append(f.submit, time.Since(start))
		f.submitted[op.tenant] += int64(op.jobs)
	}
	if err != nil {
		f.errs = append(f.errs, fmt.Errorf("tick %d: %w", f.tick+1, err))
	}
}

// step applies the next tick's calls, then times one Daemon.Step. It
// returns the Step's duration and the tenants it ticked.
func (f *fleet) step() (time.Duration, int) {
	f.tick++
	for _, op := range f.script.ops[f.tick] {
		f.apply(op)
	}
	n := f.live
	start := time.Now()
	f.d.Step()
	dur := time.Since(start)
	f.attempted++
	f.tenantTicks += int64(n)
	return dur, n
}

// digest hashes the daemon's journal and every tenant's status: equal
// digests mean byte-identical daemon output.
func (f *fleet) digest() (string, error) {
	h := sha256.New()
	if err := f.d.Journal().WriteJSONL(h, flight.DumpOptions{}); err != nil {
		return "", err
	}
	enc := json.NewEncoder(h)
	if err := enc.Encode(f.d.Status()); err != nil {
		return "", err
	}
	if err := enc.Encode(f.d.Statuses()); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// statuses returns the last observed status of every tenant that ever
// attached: live tenants now, killed tenants as of their kill.
func (f *fleet) statuses() []daemon.TenantStatus {
	out := f.d.Statuses()
	for _, st := range f.killed {
		out = append(out, st)
	}
	return out
}

// verify checks the run's output from outside: every control-path call
// succeeded, every job offered to a tenant is processed, shed or still
// queued, and the daemon ticked exactly the tenants the driver counted.
//
// The funnel is checked as offered == processed + shed + depth, not as
// enqueued == processed + shed + depth: a submit the queue rejects is
// counted as shed without ever being enqueued.
func (f *fleet) verify(rep *report) {
	for _, err := range f.errs {
		rep.check(false, "control path: %v", err)
	}
	rep.failed += int64(len(f.errs))
	var ticks int64
	for _, st := range f.statuses() {
		ticks += st.Ticks
		offered := f.submitted[st.Name] + int64(f.spec.loadPerTick)*st.Ticks
		got := st.Processed + st.Shed + int64(st.QueueDepth)
		rep.check(offered == got, "tenant %s funnel: offered %d != processed %d + shed %d + depth %d",
			st.Name, offered, st.Processed, st.Shed, st.QueueDepth)
	}
	rep.check(ticks == f.tenantTicks, "daemon ticked %d tenant-ticks, driver counted %d", ticks, f.tenantTicks)
}

// setupFleet builds a fleet and runs its warm-up, returning it with the
// set-up time: plan build, daemon.New, attaches and warm-up.
func setupFleet(spec fleetSpec, seed uint64, ticks int) (*fleet, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	f, err := newFleet(spec, seed, ticks)
	if err != nil {
		return nil, 0, err
	}
	for i := 0; i < spec.warmup; i++ {
		f.step()
	}
	return f, time.Since(start), nil
}

// setupRepeated sets the fleet up n times, checks that every repeat's
// digest agrees, and returns the last fleet with the median set-up time in
// seconds.
func setupRepeated(spec fleetSpec, seed uint64, ticks, n int, rep *report, log io.Writer) (*fleet, float64, error) {
	var (
		f      *fleet
		setups []float64
		first  string
	)
	for i := 0; i < n; i++ {
		next, dur, err := setupFleet(spec, seed, ticks)
		if err != nil {
			return nil, 0, err
		}
		dig, err := next.digest()
		if err != nil {
			return nil, 0, err
		}
		if i == 0 {
			first = dig
		}
		rep.check(dig == first, "set-up repeat %d digest %s != %s", i, dig, first)
		setups = append(setups, dur.Seconds())
		f = next
	}
	fmt.Fprintf(log, "setup: %d repeats, digest %s, %.3f s median\n", n, first, median(setups))
	return f, median(setups), nil
}

// heapMB is the live heap after full collections, in MB. The second
// collection empties the sync.Pool victim caches the first one leaves.
// Live bytes rather than HeapInuse: span fragmentation left by earlier
// set-up repeats varies from run to run and says nothing about the
// workload.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// runFleet is the untraced run: with telemetry off, set up, then step the
// fleet, timing every Step and probing the host's pace between steps.
func runFleet(spec fleetSpec, seed uint64, steps int, log io.Writer) *report {
	rep := newReport()
	telemetry.Default().SetEnabled(false)
	defer telemetry.Default().SetEnabled(true)
	f, setup, err := setupRepeated(spec, seed, spec.warmup+steps, setupRepeats, rep, log)
	if err != nil {
		rep.check(false, "set-up: %v", err)
		return rep
	}
	heap := heapMB()
	pc := newPace()
	var (
		ms, scaled = make([]float64, 0, steps), make([]float64, 0, steps)
		tt         int64
		// busy is the stepping loop's time, control-path calls included
		// and probes excluded; busyScaled is the same scaled to the
		// reference pace.
		busy, busyScaled float64
	)
	for i := 0; i < steps; i++ {
		if pc.due() {
			pc.probe()
		}
		k := pc.scale()
		start := time.Now()
		dur, n := f.step()
		it := time.Since(start).Seconds()
		busy += it
		busyScaled += it * k
		d := float64(dur) / float64(time.Millisecond)
		ms = append(ms, d)
		scaled = append(scaled, d*k)
		tt += int64(n)
	}
	f.verify(rep)
	rep.attempted = f.attempted
	dig, err := f.digest()
	rep.check(err == nil, "digest: %v", err)

	p := tailPercentile(len(ms), minBeyondTail)
	fmt.Fprintf(log, "run: %d steps, %d tenant-ticks in %.2f s; tail is p%g\n", steps, tt, busy, p)
	fmt.Fprintf(log, "digest: %s\n", dig)
	fmt.Fprintf(log, "unscaled: throughput %.1f/s, p50 %.3f ms, tail %.3f ms, setup %.4f s\n",
		float64(tt)/busy, median(ms), percentile(ms, p), setup)
	pc.report(log)
	rep.set("throughput_per_s", float64(tt)/busyScaled)
	rep.set("latency_p50_ms", median(scaled))
	rep.set("latency_tail_ms", percentile(scaled, p))
	rep.set("setup_s", setup*pc.factor())
	rep.set("heap_mb", heap)
	return rep
}
