// Package daemon is the multi-tenant protection service behind aegisd: a
// fleet of guest VMs, each running a protected application plus its own
// obfuscator built from one shared gadget plan, all driven off a single
// deterministic tick loop. The daemon owns the loop but not the clock —
// callers (cmd/aegisd's wall-clock ticker, the daemontest scenario
// runner) call Step, so every daemon scenario is seed-replayable.
//
// Lifecycle: tenants move Attaching → Protecting → Draining → Detached
// (see State). Work arrives through bounded per-tenant queues; when a
// queue is full the daemon sheds, and a shed is never silent — it lands
// in the per-tenant funnel counters, the daemon_events_shed_total{tenant}
// metric and the daemon's own flight journal, and it closes the readiness
// gate until the backlog drains. Config changes (Reload) are validated
// atomically, staged, and applied at the next tick boundary so no
// in-flight tick ever observes a half-applied config.
//
// Determinism contract: the daemon journals to its own flight.Recorder
// (Journal), and every write to it happens either under the daemon mutex
// from a control-path call or at the post-tick barrier iterating tenants
// in attach order — never from the parallel per-tenant fan-out. The same
// seed therefore produces a byte-identical journal at any Parallelism.
package daemon

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/repro/aegis/internal/faultinject"
	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/microarch"
	"github.com/repro/aegis/internal/obfuscator"
	"github.com/repro/aegis/internal/ops"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/sev"
	"github.com/repro/aegis/internal/telemetry"
	"github.com/repro/aegis/internal/telemetry/flight"
	"github.com/repro/aegis/internal/workload"
)

// Daemon-level metrics; the per-tenant funnel counters are created at
// attach time with a tenant label.
var (
	mTicks               = telemetry.C("daemon_ticks_total")
	mTenantTicks         = telemetry.C("daemon_tenant_ticks_total")
	gTenants             = telemetry.G("daemon_tenants")
	mAttaches            = telemetry.C("daemon_attaches_total")
	mDetaches            = telemetry.C("daemon_detaches_total")
	mReloads             = telemetry.C("daemon_reloads_total")
	mReloadRejects       = telemetry.C("daemon_reload_rejects_total")
	mDegradedTenantTicks = telemetry.C("daemon_degraded_tenant_ticks_total")
	mJobErrors           = telemetry.C("daemon_job_errors_total")
	gOverloaded          = telemetry.G("daemon_overloaded")
)

// Errors returned by the daemon. Control-API handlers map them onto HTTP
// statuses with errors.Is, so wrap — don't replace — when adding context.
var (
	ErrTenantExists = errors.New("daemon: tenant already attached")
	ErrNoTenant     = errors.New("daemon: no such tenant")
	ErrNotAccepting = errors.New("daemon: tenant not accepting work")
	ErrBadTunables  = errors.New("daemon: invalid tunables")
	ErrBadAttach    = errors.New("daemon: invalid attach spec")
)

// Mechanism names accepted by Config.Mechanism and Tunables.Mechanism.
const (
	MechanismLaplace  = obfuscator.MechanismLaplace
	MechanismDStar    = obfuscator.MechanismDStar
	MechanismRandom   = obfuscator.MechanismRandom
	MechanismConstant = obfuscator.MechanismConstant
)

// Config configures a daemon. Segment and RefEvent are the shared
// protection plan (typically from one offline fuzz campaign); every
// tenant's obfuscator is built from them with tenant-derived seeds.
type Config struct {
	// Segment is the stacked gadget segment every tenant injects.
	Segment []isa.Variant
	// RefEvent is the reference HPC event the plan was fuzzed against.
	RefEvent *hpc.Event
	// Mechanism names the initial noise mechanism ("" means laplace).
	Mechanism string
	// Epsilon is the per-tick privacy parameter (0 means 1).
	Epsilon float64
	// Sensitivity is the DP sensitivity Δ (0 means
	// obfuscator.DefaultSensitivity).
	Sensitivity float64
	// ClipBound truncates per-tick noise to [0, ClipBound] (0 means
	// obfuscator.DefaultClipBound).
	ClipBound float64
	// QueueCapacity bounds each tenant's work queue (0 means 64).
	QueueCapacity int
	// MaxItemsPerTick bounds queue items applied per tenant tick
	// (0 means 8).
	MaxItemsPerTick int
	// LoadPerTick makes the daemon itself enqueue this many work items
	// per Protecting tenant per tick — the internal load generator used
	// by soak tests and demos. 0 disables it.
	LoadPerTick int
	// TickBudget is the per-tenant per-tick instruction budget
	// (0 means 2000).
	TickBudget int
	// Parallelism fans the per-tenant tick work across this many
	// goroutines (<= 1 means serial). Journals are byte-identical at any
	// value; only wall-clock changes.
	Parallelism int
	// Seed derives every per-tenant seed (worlds, runners, obfuscators,
	// fault schedules) as a pure function of (Seed, tenant name).
	Seed uint64
	// Faults, when enabled, gives every tenant a fault schedule derived
	// from its own seed, so tenants degrade independently.
	Faults faultinject.Config
	// VMMemoryBytes sets each tenant VM's guest-memory bound (0 means
	// 64 KiB). It costs no heap at any size: guest memory is allocated on
	// the first guest write, and nothing outside sev's tests writes it.
	VMMemoryBytes int
	// JournalCapacity sizes the daemon's own flight ring (0 means
	// flight.DefaultCapacity).
	JournalCapacity int
}

// Settings is the live, reloadable subset of Config: the daemon's
// effective tunables, as /status reports them.
type Settings struct {
	Mechanism       string  `json:"mechanism"`
	Epsilon         float64 `json:"epsilon"`
	ClipBound       float64 `json:"clip_bound"`
	QueueCapacity   int     `json:"queue_capacity"`
	MaxItemsPerTick int     `json:"max_items_per_tick"`
	LoadPerTick     int     `json:"load_per_tick"`
}

// Tunables is a live-reloadable config delta (SIGHUP file, POST
// /ctl/v1/reload). Nil fields and the empty mechanism keep the current
// value, so a reload body only names what it changes. Validation is
// atomic: any invalid field rejects the whole delta and the old config
// stays live.
type Tunables struct {
	Mechanism       string   `json:"mechanism,omitempty"`
	Epsilon         *float64 `json:"epsilon,omitempty"`
	ClipBound       *float64 `json:"clip_bound,omitempty"`
	QueueCapacity   *int     `json:"queue_capacity,omitempty"`
	MaxItemsPerTick *int     `json:"max_items_per_tick,omitempty"`
	LoadPerTick     *int     `json:"load_per_tick,omitempty"`
}

// validate checks the delta against the closed mechanism set and the
// positivity constraints; the daemon applies none of it on error.
func (t Tunables) validate() error {
	if t.Mechanism != "" && !obfuscator.KnownMechanism(t.Mechanism) {
		return fmt.Errorf("%w: unknown mechanism %q", ErrBadTunables, t.Mechanism)
	}
	if t.Epsilon != nil && *t.Epsilon <= 0 {
		return fmt.Errorf("%w: epsilon %v <= 0", ErrBadTunables, *t.Epsilon)
	}
	if t.ClipBound != nil && *t.ClipBound <= 0 {
		return fmt.Errorf("%w: clip_bound %v <= 0", ErrBadTunables, *t.ClipBound)
	}
	if t.QueueCapacity != nil && *t.QueueCapacity < 1 {
		return fmt.Errorf("%w: queue_capacity %d < 1", ErrBadTunables, *t.QueueCapacity)
	}
	if t.MaxItemsPerTick != nil && *t.MaxItemsPerTick < 1 {
		return fmt.Errorf("%w: max_items_per_tick %d < 1", ErrBadTunables, *t.MaxItemsPerTick)
	}
	if t.LoadPerTick != nil && *t.LoadPerTick < 0 {
		return fmt.Errorf("%w: load_per_tick %d < 0", ErrBadTunables, *t.LoadPerTick)
	}
	return nil
}

// State is a tenant's position in the lifecycle machine. Transitions:
// Attaching → Protecting on the first tick after attach; Protecting →
// Draining on a graceful detach (queue drains, no new work accepted);
// Draining → Detached at the first tick barrier with an empty queue. A
// kill-detach jumps straight to Detached, shedding the queue (counted
// and journaled, never silent). Either way, items already handed off to
// the guest (the backlog) leave with the tenant.
type State uint8

// Tenant lifecycle states.
const (
	StateAttaching State = iota
	StateProtecting
	StateDraining
	StateDetached
)

// String returns the stable wire name of the state.
func (s State) String() string {
	switch s {
	case StateAttaching:
		return "attaching"
	case StateProtecting:
		return "protecting"
	case StateDraining:
		return "draining"
	case StateDetached:
		return "detached"
	default:
		return "unknown"
	}
}

// workItem is one queued unit of work: run the tenant app once under the
// secret picked at enqueue time.
type workItem struct {
	secret int
}

// fifo is a ring of work items, oldest first: buf[head..head+n) mod
// len(buf). A tenant's queue is a fifo of fixed capacity; its backlog
// doubles whenever it fills.
type fifo struct {
	buf  []workItem
	head int
	n    int
}

// minBacklog is the capacity of a backlog's first buffer.
const minBacklog = 8

// full reports whether the ring has no free slot.
func (q *fifo) full() bool { return q.n == len(q.buf) }

// push appends an item; call only when the ring is not full.
func (q *fifo) push(it workItem) {
	idx := q.head + q.n
	if idx >= len(q.buf) {
		idx -= len(q.buf)
	}
	q.buf[idx] = it
	q.n++
}

// pop removes the oldest item; call only with n > 0.
func (q *fifo) pop() workItem {
	it := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return it
}

// resize moves the ring onto a fresh buffer of the given capacity,
// keeping the oldest items that fit, and returns how many it dropped.
func (q *fifo) resize(capacity int) (dropped int) {
	next := make([]workItem, capacity)
	keep := min(q.n, capacity)
	k := copy(next[:keep], q.buf[q.head:])
	copy(next[k:keep], q.buf)
	dropped = q.n - keep
	q.buf, q.head, q.n = next, 0, keep
	return dropped
}

// Tenant is one protected guest: its own 1-core SEV world, the app
// runner, and an obfuscator sharing the runner's vCPU (paper §VII-C).
// All fields are owned by the daemon and guarded by its mutex; runTick
// runs on at most one goroutine per tenant per tick.
type Tenant struct {
	name    string
	id      int
	appName string
	app     workload.App
	secrets []string

	state   State
	guest   *sev.Guest
	runner  *workload.Runner
	obf     *obfuscator.Obfuscator
	jobRng  *rng.Source
	planGen int

	// Bounded work queue; items leave it by hand-off to the backlog.
	queue fifo
	seq   int64 // enqueue sequence, drives secret rotation
	// Items handed off to the guest whose job has not started. The job
	// is built only when the runner goes idle, so an item waits here as
	// 8 bytes rather than as a built job.
	backlog fifo

	// All-time funnel. Reconciles as enqueued == processed + shed +
	// queue.n, and processed (hand-offs) == jobs completed + running +
	// backlog.n + jobErrors.
	ticks         int64
	enqueued      int64
	processed     int64
	shed          int64
	degradedTicks int64
	jobErrors     int64

	// Per-tick scratch, written by runTick, consumed and reset at the
	// post-tick barrier.
	enqueuedTick   int64
	processedTick  int64
	shedTick       int64
	degradedTick   bool
	degradedReason obfuscator.DegradeReason
	jobErrorTick   bool

	// Pre-created per-tenant instruments so the barrier stays
	// allocation-free.
	mEnq, mProc, mShed *telemetry.Counter
	gDepth, gBacklog   *telemetry.Gauge
}

// AttachSpec describes a tenant to attach.
type AttachSpec struct {
	// Name is the unique tenant identifier.
	Name string `json:"name"`
	// App selects the protected workload: website (default), keystroke
	// or dnn.
	App string `json:"app,omitempty"`
	// Secrets bounds the app's secret alphabet (0 means a small default),
	// keeping per-tenant cost low when protecting hundreds of tenants.
	Secrets int `json:"secrets,omitempty"`
}

// TenantStatus is the JSON view of one tenant.
type TenantStatus struct {
	Name           string                      `json:"name"`
	ID             int                         `json:"id"`
	State          string                      `json:"state"`
	App            string                      `json:"app"`
	PlanGeneration int                         `json:"plan_generation"`
	Ticks          int64                       `json:"ticks"`
	QueueDepth     int                         `json:"queue_depth"`
	QueueCapacity  int                         `json:"queue_capacity"`
	Enqueued       int64                       `json:"enqueued_total"`
	Processed      int64                       `json:"processed_total"`
	Shed           int64                       `json:"shed_total"`
	DegradedTicks  int64                       `json:"degraded_ticks_total"`
	Protection     obfuscator.ProtectionReport `json:"protection"`
}

// Status is the JSON view of the whole daemon.
type Status struct {
	Tick                int64    `json:"tick"`
	Tenants             int      `json:"tenants"`
	Attached            int64    `json:"attached_total"`
	Detached            int64    `json:"detached_total"`
	Enqueued            int64    `json:"enqueued_total"`
	Processed           int64    `json:"processed_total"`
	Shed                int64    `json:"shed_total"`
	DegradedTenantTicks int64    `json:"degraded_tenant_ticks_total"`
	Reloads             int64    `json:"reloads_total"`
	ReloadRejects       int64    `json:"reload_rejects_total"`
	Overloaded          bool     `json:"overloaded"`
	PendingReload       bool     `json:"pending_reload"`
	Settings            Settings `json:"settings"`
	JournalRecords      uint64   `json:"journal_records"`
	JournalIncidents    uint64   `json:"journal_incidents"`
}

// Daemon is the multi-tenant protection service. All exported methods are
// safe for concurrent use; control-path calls serialize against Step at
// tick boundaries, which is what keeps the journal deterministic.
type Daemon struct {
	cfg Config

	mu      sync.Mutex
	set     Settings
	pending *Tunables
	tenants map[string]*Tenant
	order   []*Tenant // live tenants in attach order; Step iterates this
	nextID  int
	tick    int64

	attached            int64
	detached            int64
	enqueuedTotal       int64
	processedTotal      int64
	shedTotal           int64
	degradedTenantTicks int64
	reloads             int64
	reloadRejects       int64
	overloaded          bool

	journal *flight.Recorder
	fDaemon *flight.Handle
	gate    *ops.Gate
}

// New builds a daemon around a shared protection plan.
func New(cfg Config) (*Daemon, error) {
	if len(cfg.Segment) == 0 {
		return nil, obfuscator.ErrNoSegment
	}
	if cfg.RefEvent == nil {
		return nil, obfuscator.ErrNoRefEvent
	}
	if cfg.Mechanism == "" {
		cfg.Mechanism = MechanismLaplace
	}
	if cfg.Epsilon <= 0 {
		cfg.Epsilon = 1
	}
	if cfg.Sensitivity <= 0 {
		cfg.Sensitivity = obfuscator.DefaultSensitivity
	}
	if cfg.ClipBound <= 0 {
		cfg.ClipBound = obfuscator.DefaultClipBound
	}
	if cfg.QueueCapacity <= 0 {
		cfg.QueueCapacity = 64
	}
	if cfg.MaxItemsPerTick <= 0 {
		cfg.MaxItemsPerTick = 8
	}
	if cfg.TickBudget <= 0 {
		cfg.TickBudget = 2000
	}
	if cfg.VMMemoryBytes <= 0 {
		cfg.VMMemoryBytes = 64 << 10
	}
	if cfg.JournalCapacity <= 0 {
		cfg.JournalCapacity = flight.DefaultCapacity
	}
	if err := (Tunables{Mechanism: cfg.Mechanism}).validate(); err != nil {
		return nil, err
	}
	journal := flight.NewRecorder(cfg.JournalCapacity)
	d := &Daemon{
		cfg: cfg,
		set: Settings{
			Mechanism:       cfg.Mechanism,
			Epsilon:         cfg.Epsilon,
			ClipBound:       cfg.ClipBound,
			QueueCapacity:   cfg.QueueCapacity,
			MaxItemsPerTick: cfg.MaxItemsPerTick,
			LoadPerTick:     cfg.LoadPerTick,
		},
		tenants: make(map[string]*Tenant),
		journal: journal,
		fDaemon: journal.Handle(flight.KindDaemon),
		gate:    ops.NewGate("daemon"),
	}
	d.gate.Open()
	return d, nil
}

// Journal returns the daemon's own flight recorder: lifecycle events,
// shed/degradation incidents and per-tick summaries, byte-identical
// across same-seed replays at any parallelism. Wire it as the ops
// server's Recorder so /flight serves the deterministic journal.
func (d *Daemon) Journal() *flight.Recorder { return d.journal }

// ReadyProbe returns the readiness gate: open in steady state, closed
// while any tenant queue is saturated (load is being shed), reopened
// when the backlog drains.
func (d *Daemon) ReadyProbe() ops.Probe { return d.gate.Probe() }

// HealthProbe reports the daemon's liveness detail: degraded while
// overloaded, ok otherwise.
func (d *Daemon) HealthProbe() ops.Probe {
	return ops.Probe{Name: "daemon", Check: func() ops.ProbeResult {
		d.mu.Lock()
		tick, tenants, over := d.tick, len(d.order), d.overloaded
		d.mu.Unlock()
		detail := fmt.Sprintf("tick %d, %d tenants", tick, tenants)
		if over {
			return ops.Degraded(detail + ", shedding load")
		}
		return ops.OK(detail)
	}}
}

// Tick returns the current daemon tick.
func (d *Daemon) Tick() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tick
}

// BuildApp constructs the named tenant application with a bounded secret
// alphabet (secrets <= 0 means 4). Attach builds every tenant's app with
// it, so callers that must see the same app as a tenant (aegisd's
// event-selection profiling) build theirs with it too.
func BuildApp(name string, secrets int) (workload.App, error) {
	if secrets <= 0 {
		secrets = 4
	}
	switch name {
	case "", "website":
		sites := workload.Websites()
		if secrets < len(sites) {
			sites = sites[:secrets]
		}
		return &workload.WebsiteApp{Sites: sites}, nil
	case "keystroke":
		if secrets > 10 {
			secrets = 10
		}
		return &workload.KeystrokeApp{MaxKeys: secrets}, nil
	case "dnn":
		return &workload.DNNApp{}, nil
	default:
		return nil, fmt.Errorf("%w: unknown app %q", ErrBadAttach, name)
	}
}

// tenantFaults derives the tenant's own fault schedule: same rates as the
// daemon config, tenant-specific seed, so tenants degrade independently.
func (d *Daemon) tenantFaults(name string) faultinject.Config {
	fcfg := d.cfg.Faults
	if fcfg.Enabled() {
		fcfg.Seed = rng.NewStream(d.cfg.Seed, "daemon", name, "faults").Uint64()
	}
	return fcfg
}

// buildObfuscator constructs tenant t's obfuscator for the given settings
// at the current plan generation: mechanism and fallback streams are
// generation-derived, so replans re-seed deterministically.
func (d *Daemon) buildObfuscator(t *Tenant, set Settings) (*obfuscator.Obfuscator, error) {
	mech, err := obfuscator.NewMechanism(set.Mechanism, set.Epsilon, set.ClipBound, d.cfg.Sensitivity,
		rng.NewStream(d.cfg.Seed, "daemon", t.name, "mech").SplitN("gen", t.planGen))
	if err != nil {
		return nil, err
	}
	recipe := obfuscator.Recipe{Segment: d.cfg.Segment, RefEvent: d.cfg.RefEvent, ClipBound: set.ClipBound}
	return recipe.Deploy(mech,
		rng.NewStream(d.cfg.Seed, "daemon", t.name, "plan").SplitN("gen", t.planGen).Uint64(),
		d.tenantFaults(t.name))
}

// Attach launches a tenant: a fresh 1-core SEV guest running the app, with
// the tenant's obfuscator in the same vCPU's defense slot. The tenant starts
// Attaching and is promoted to Protecting at its first tick barrier.
func (d *Daemon) Attach(spec AttachSpec) error {
	if spec.Name == "" {
		return fmt.Errorf("%w: empty tenant name", ErrBadAttach)
	}
	app, err := BuildApp(spec.App, spec.Secrets)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.tenants[spec.Name]; ok {
		return fmt.Errorf("%w: %q", ErrTenantExists, spec.Name)
	}
	seeds := rng.NewStream(d.cfg.Seed, "daemon", spec.Name)
	worldSeed := seeds.Uint64()
	runner := workload.NewRunner(spec.Name+"-app", workload.DefaultLibrary(seeds.Uint64()), seeds.Split("runner"))
	guest, err := sev.NewGuest(sev.GuestConfig{
		World: sev.Config{
			Processor:     "AMD EPYC 7252",
			PhysicalCores: 1,
			Core:          microarch.DefaultCoreConfig(),
			TickBudget:    d.cfg.TickBudget,
			Seed:          worldSeed,
		},
		VM:     sev.VMConfig{VCPUs: 1, SEV: true, MemoryBytes: d.cfg.VMMemoryBytes},
		Faults: faultinject.New(d.tenantFaults(spec.Name)),
		App:    runner,
	})
	if err != nil {
		return fmt.Errorf("daemon: attach %q: %w", spec.Name, err)
	}
	t := &Tenant{
		name:     spec.Name,
		id:       d.nextID,
		appName:  app.Name(),
		app:      app,
		secrets:  app.Secrets(),
		state:    StateAttaching,
		guest:    guest,
		runner:   runner,
		jobRng:   seeds.Split("jobs"),
		queue:    fifo{buf: make([]workItem, d.set.QueueCapacity)},
		mEnq:     telemetry.C("daemon_events_enqueued_total", telemetry.L("tenant", spec.Name)),
		mProc:    telemetry.C("daemon_events_processed_total", telemetry.L("tenant", spec.Name)),
		mShed:    telemetry.C("daemon_events_shed_total", telemetry.L("tenant", spec.Name)),
		gDepth:   telemetry.G("daemon_queue_depth", telemetry.L("tenant", spec.Name)),
		gBacklog: telemetry.G("daemon_backlog_jobs", telemetry.L("tenant", spec.Name)),
	}
	obf, err := d.buildObfuscator(t, d.set)
	if err != nil {
		return fmt.Errorf("daemon: attach %q: %w", spec.Name, err)
	}
	t.obf = obf
	_ = guest.VM.SetDefense(0, obf) // vCPU 0 always exists
	d.nextID++
	d.tenants[t.name] = t
	d.order = append(d.order, t)
	d.attached++
	mAttaches.Inc()
	gTenants.Set(float64(len(d.order)))
	d.fDaemon.Record(d.tick, flight.CodeTenantAttach, flight.CodeNone, float64(t.id), 0, 0)
	return nil
}

// Detach removes a tenant. Graceful (kill=false) marks it Draining: the
// queue keeps draining under protection, no new work is accepted, and
// teardown happens at the first tick barrier with an empty queue. Kill
// tears down immediately, shedding whatever is still queued — counted
// and journaled as an incident.
func (d *Daemon) Detach(name string, kill bool) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.tenants[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoTenant, name)
	}
	if !kill {
		if t.state != StateDraining {
			t.state = StateDraining
			d.fDaemon.Record(d.tick, flight.CodeTenantDrain, flight.CodeNone,
				float64(t.id), float64(t.queue.n), 0)
		}
		return nil
	}
	if n := t.queue.n; n > 0 {
		t.shed += int64(n)
		d.shedTotal += int64(n)
		t.mShed.Add(float64(n))
		d.fDaemon.Incident(d.tick, flight.CodeTenantShed, flight.CodeNone,
			float64(t.id), float64(n), 0)
		t.queue.n = 0
	}
	d.removeLocked(t)
	return nil
}

// removeLocked tears a tenant down and compacts it out of the live set.
//
//aegis:serialized
func (d *Daemon) removeLocked(t *Tenant) {
	t.guest = nil
	t.state = StateDetached
	t.gDepth.Set(0)
	t.gBacklog.Set(0)
	delete(d.tenants, t.name)
	for i, o := range d.order {
		if o == t {
			d.order = append(d.order[:i:i], d.order[i+1:]...)
			break
		}
	}
	d.detached++
	mDetaches.Inc()
	gTenants.Set(float64(len(d.order)))
	d.fDaemon.Record(d.tick, flight.CodeTenantDetach, flight.CodeNone,
		float64(t.id), float64(t.ticks), 0)
}

// Submit enqueues jobs for a tenant, returning how many were accepted;
// the rest were shed against the bounded queue (counted, journaled, and
// reflected in the readiness gate). Only Attaching/Protecting tenants
// accept work.
func (d *Daemon) Submit(name string, jobs int) (accepted int, err error) {
	if jobs < 0 {
		jobs = 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.tenants[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoTenant, name)
	}
	if t.state == StateDraining {
		return 0, fmt.Errorf("%w: %q is draining", ErrNotAccepting, name)
	}
	shed := 0
	for i := 0; i < jobs; i++ {
		if !t.push() {
			shed++
		}
	}
	accepted = jobs - shed
	if accepted > 0 {
		t.enqueued += int64(accepted)
		d.enqueuedTotal += int64(accepted)
		t.mEnq.Add(float64(accepted))
	}
	if shed > 0 {
		t.shed += int64(shed)
		d.shedTotal += int64(shed)
		t.mShed.Add(float64(shed))
		d.fDaemon.Incident(d.tick, flight.CodeTenantShed, flight.CodeNone,
			float64(t.id), float64(shed), 0)
		d.setOverloadedLocked(true)
	}
	t.gDepth.Set(float64(t.queue.n))
	return accepted, nil
}

// push appends one work item to the tenant queue, reporting false when
// the queue is full (the caller sheds).
func (t *Tenant) push() bool {
	if t.queue.full() {
		return false
	}
	t.queue.push(workItem{secret: int(t.seq % int64(len(t.secrets)))})
	t.seq++
	return true
}

// Reload validates a tunables delta and stages it; the delta is applied
// at the start of the next Step, so no in-flight tick is dropped or
// half-configured. Invalid deltas are rejected atomically: nothing is
// staged and the old config stays live.
func (d *Daemon) Reload(tun Tunables) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := tun.validate(); err != nil {
		d.reloadRejects++
		mReloadRejects.Inc()
		d.fDaemon.Incident(d.tick, flight.CodeDaemonReloadReject, flight.CodeNone, 0, 0, 0)
		return err
	}
	d.pending = &tun
	d.reloads++
	mReloads.Inc()
	d.fDaemon.Record(d.tick, flight.CodeDaemonReload, flight.CodeNone, 0, 0, 0)
	return nil
}

// applyReloadLocked folds the staged delta into the live settings and
// re-plans tenants where the protection parameters changed. Runs at the
// top of Step, before any tenant ticks.
//
//aegis:serialized
func (d *Daemon) applyReloadLocked() {
	tun := d.pending
	if tun == nil {
		return
	}
	d.pending = nil
	next := d.set
	if tun.Mechanism != "" {
		next.Mechanism = tun.Mechanism
	}
	if tun.Epsilon != nil {
		next.Epsilon = *tun.Epsilon
	}
	if tun.ClipBound != nil {
		next.ClipBound = *tun.ClipBound
	}
	if tun.QueueCapacity != nil {
		next.QueueCapacity = *tun.QueueCapacity
	}
	if tun.MaxItemsPerTick != nil {
		next.MaxItemsPerTick = *tun.MaxItemsPerTick
	}
	if tun.LoadPerTick != nil {
		next.LoadPerTick = *tun.LoadPerTick
	}
	replan := next.Mechanism != d.set.Mechanism ||
		next.Epsilon != d.set.Epsilon || next.ClipBound != d.set.ClipBound
	resize := next.QueueCapacity != d.set.QueueCapacity
	d.set = next
	if !replan && !resize {
		return
	}
	for _, t := range d.order {
		if resize {
			d.resizeQueueLocked(t, next.QueueCapacity)
		}
		if !replan {
			continue
		}
		t.planGen++
		obf, err := d.buildObfuscator(t, next)
		if err != nil {
			// Post-validation this cannot fail (the segment calibrated at
			// attach); if it somehow does, keep the old plan and say so.
			d.reloadRejects++
			mReloadRejects.Inc()
			d.fDaemon.Incident(d.tick, flight.CodeDaemonReloadReject, flight.CodeNone,
				float64(t.id), 0, 0)
			continue
		}
		_ = t.guest.VM.SetDefense(0, obf) // vCPU 0 always exists
		t.obf = obf
		d.fDaemon.Record(d.tick, flight.CodeTenantReplan, flight.CodeNone,
			float64(t.id), float64(t.planGen), 0)
	}
}

// resizeQueueLocked swaps a tenant onto a new queue capacity, shedding
// the newest items that no longer fit. The shed is journaled at this
// tick's barrier along with any tick-time sheds.
func (d *Daemon) resizeQueueLocked(t *Tenant, capacity int) {
	t.shedTick += int64(t.queue.resize(capacity))
	t.gDepth.Set(float64(t.queue.n))
}

// setOverloadedLocked flips the overload latch, the readiness gate and
// the gauge together.
func (d *Daemon) setOverloadedLocked(over bool) {
	if over == d.overloaded {
		return
	}
	d.overloaded = over
	if over {
		d.gate.Close()
		gOverloaded.Set(1)
	} else {
		d.gate.Open()
		gOverloaded.Set(0)
	}
}

// Step advances every tenant by one tick: apply any staged reload, fan
// the per-tenant tick work across Parallelism goroutines, then run the
// serialized barrier that journals outcomes in attach order. The daemon
// never steps itself — the caller owns the clock (cmd/aegisd ticks on
// wall time, tests and the scenario harness step explicitly), which is
// what keeps every scenario seed-replayable.
func (d *Daemon) Step() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.applyReloadLocked()
	d.tick++
	par := d.cfg.Parallelism
	if par > len(d.order) {
		par = len(d.order)
	}
	if par > 1 {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(par)
		for w := 0; w < par; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(d.order) {
						return
					}
					d.runTick(d.order[i])
				}
			}()
		}
		wg.Wait()
	} else {
		for _, t := range d.order {
			d.runTick(t)
		}
	}
	d.finishTickLocked()
}

// runTick advances one tenant by one tick: generate internal load, hand
// up to maxItems queued items off to the guest's backlog, start the
// oldest backlogged job if the runner is idle, step the tenant's world
// (runner + obfuscator share the vCPU budget), and fold the obfuscator's
// outcome into the per-tick scratch. May run concurrently across
// tenants; it touches only tenant-owned state and never the daemon
// journal — all journaling happens at the serialized barrier.
//
// The steady-state path is allocation-free: gated dynamically by TestZeroAllocDaemonTick
// (alloc_gate_test.go, `make bench-alloc`) and statically by the
// aegis-lint hotpath rule, which bans allocating constructs in any
// function carrying this annotation.
//
//aegis:hotpath
func (d *Daemon) runTick(t *Tenant) {
	if t.state == StateAttaching || t.state == StateProtecting {
		for i := 0; i < d.set.LoadPerTick; i++ {
			if t.push() {
				t.enqueuedTick++
			} else {
				t.shedTick++
			}
		}
	}
	for n := 0; n < d.set.MaxItemsPerTick && t.queue.n > 0; n++ {
		if t.backlog.full() {
			t.backlog.resize(max(2*len(t.backlog.buf), minBacklog))
		}
		t.backlog.push(t.queue.pop())
		t.processedTick++
	}
	// A runner starts its next job on the world step after the one that
	// finished the last, so building the job only once the runner is idle
	// starts every job on the same tick as building it at hand-off did,
	// from the same job stream in the same order.
	if t.runner.Pending() == 0 && t.backlog.n > 0 {
		//aegis:allow(hotpathdeep) startJob synthesizes a guest job — modeled tenant work, not daemon bookkeeping, once per job start; the hand-off itself is gated by TestZeroAllocDaemonHandOff and the protection loop by TestZeroAllocDaemonTick
		t.startJob()
	}
	t.guest.World.Step()
	info := t.obf.LastTick()
	// LastTick is only fresh when the obfuscator ran this world tick; a
	// saturated runner can eat the whole vCPU budget before the
	// obfuscator's turn, and a stale outcome must not be re-counted.
	if info.Tick == t.guest.World.Tick() && info.Outcome == obfuscator.TickDegraded {
		t.degradedTick = true
		t.degradedReason = info.DegradedReason
	}
	t.ticks++
}

// startJob builds the oldest backlogged item's job and gives it to the
// runner. Every secret of a BuildApp alphabet builds, so a build error
// means a broken app: the item is dropped, counted and journaled at the
// barrier as an incident, and the runner idles this tick.
func (t *Tenant) startJob() {
	it := t.backlog.pop()
	job, err := t.app.Job(t.secrets[it.secret], t.jobRng)
	if err != nil {
		t.jobErrorTick = true
		return
	}
	t.runner.Enqueue(job)
}

// finishTickLocked is the post-tick barrier: iterate tenants in attach
// order, fold per-tick scratch into the funnels, journal shed and
// degradation incidents plus the per-tick daemon summary, promote
// Attaching tenants, complete drains, and recompute the overload latch.
// Serialized under the daemon mutex, so the journal is deterministic.
//
// The steady-state path is allocation-free: gated dynamically by TestZeroAllocDaemonTick
// (alloc_gate_test.go, `make bench-alloc`) and statically by the
// aegis-lint hotpath rule, which bans allocating constructs in any
// function carrying this annotation.
//
// The journal writes below are legal because this function only runs in
// the daemon's serialized section; the aegis-lint lockjournal rule
// enforces that via the annotation.
//
//aegis:serialized
//aegis:hotpath
func (d *Daemon) finishTickLocked() {
	var procTick, shedTick int64
	anyFull := false
	drained := 0
	for _, t := range d.order {
		if t.state == StateAttaching {
			t.state = StateProtecting
		}
		mTenantTicks.Inc()
		if t.enqueuedTick > 0 {
			t.enqueued += t.enqueuedTick
			d.enqueuedTotal += t.enqueuedTick
			t.mEnq.Add(float64(t.enqueuedTick))
		}
		if t.processedTick > 0 {
			t.processed += t.processedTick
			d.processedTotal += t.processedTick
			procTick += t.processedTick
			t.mProc.Add(float64(t.processedTick))
		}
		if t.shedTick > 0 {
			t.shed += t.shedTick
			d.shedTotal += t.shedTick
			shedTick += t.shedTick
			t.mShed.Add(float64(t.shedTick))
			d.fDaemon.Incident(d.tick, flight.CodeTenantShed, flight.CodeNone,
				float64(t.id), float64(t.shedTick), 0)
		}
		if t.degradedTick {
			t.degradedTicks++
			d.degradedTenantTicks++
			mDegradedTenantTicks.Inc()
			d.fDaemon.Incident(d.tick, flight.CodeTenantDegraded, t.degradedReason.FlightCode(),
				float64(t.id), 1, 0)
		}
		if t.jobErrorTick {
			t.jobErrors++
			mJobErrors.Inc()
			d.fDaemon.Incident(d.tick, flight.CodeTenantJobError, flight.CodeNone,
				float64(t.id), 1, 0)
		}
		t.gDepth.Set(float64(t.queue.n))
		t.gBacklog.Set(float64(t.backlog.n))
		if t.queue.full() {
			anyFull = true
		}
		if t.state == StateDraining && t.queue.n == 0 {
			drained++
		}
		t.enqueuedTick, t.processedTick, t.shedTick = 0, 0, 0
		t.degradedTick, t.jobErrorTick = false, false
		t.degradedReason = ""
	}
	// Complete finished drains after the stats pass: removal splices
	// d.order, so it cannot run inside the range above.
	for drained > 0 {
		drained = 0
		for _, t := range d.order {
			if t.state == StateDraining && t.queue.n == 0 {
				//aegis:allow(hotpathdeep) tenant teardown runs only when a drain completes — a rare administrative branch of the barrier, not steady-state work
				d.removeLocked(t)
				drained++
				break
			}
		}
	}
	d.setOverloadedLocked(anyFull)
	mTicks.Inc()
	d.fDaemon.Record(d.tick, flight.CodeDaemonSummary, flight.CodeNone,
		float64(len(d.order)), float64(procTick), float64(shedTick))
}

// TenantStatus returns one tenant's status.
func (d *Daemon) TenantStatus(name string) (TenantStatus, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.tenants[name]
	if !ok {
		return TenantStatus{}, fmt.Errorf("%w: %q", ErrNoTenant, name)
	}
	return d.tenantStatusLocked(t), nil
}

// JobFunnel is where one tenant's handed-off work items stand. While the
// tenant is attached, its processed_total (hand-offs) equals Completed +
// Running + Backlog + Errors.
type JobFunnel struct {
	// Completed counts the jobs the guest runner finished.
	Completed int64
	// Running counts jobs given to the runner and not finished (0 or 1).
	Running int64
	// Backlog counts items handed off whose job has not started.
	Backlog int64
	// Errors counts items dropped because their job failed to build.
	Errors int64
}

// TenantJobs returns one tenant's job funnel. It is kept out of
// TenantStatus: the backlog is the guest's business, not the daemon's
// queue.
func (d *Daemon) TenantJobs(name string) (JobFunnel, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.tenants[name]
	if !ok {
		return JobFunnel{}, fmt.Errorf("%w: %q", ErrNoTenant, name)
	}
	return JobFunnel{
		Completed: int64(t.runner.Completed()),
		Running:   int64(t.runner.Pending()),
		Backlog:   int64(t.backlog.n),
		Errors:    t.jobErrors,
	}, nil
}

func (d *Daemon) tenantStatusLocked(t *Tenant) TenantStatus {
	return TenantStatus{
		Name:           t.name,
		ID:             t.id,
		State:          t.state.String(),
		App:            t.appName,
		PlanGeneration: t.planGen,
		Ticks:          t.ticks,
		QueueDepth:     t.queue.n,
		QueueCapacity:  len(t.queue.buf),
		Enqueued:       t.enqueued,
		Processed:      t.processed,
		Shed:           t.shed,
		DegradedTicks:  t.degradedTicks,
		Protection:     t.obf.Report(),
	}
}

// Statuses returns every live tenant's status in attach order.
func (d *Daemon) Statuses() []TenantStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]TenantStatus, 0, len(d.order))
	for _, t := range d.order {
		out = append(out, d.tenantStatusLocked(t))
	}
	return out
}

// Status returns the daemon-level status.
func (d *Daemon) Status() Status {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Status{
		Tick:                d.tick,
		Tenants:             len(d.order),
		Attached:            d.attached,
		Detached:            d.detached,
		Enqueued:            d.enqueuedTotal,
		Processed:           d.processedTotal,
		Shed:                d.shedTotal,
		DegradedTenantTicks: d.degradedTenantTicks,
		Reloads:             d.reloads,
		ReloadRejects:       d.reloadRejects,
		Overloaded:          d.overloaded,
		PendingReload:       d.pending != nil,
		Settings:            d.set,
		JournalRecords:      d.journal.Total(),
		JournalIncidents:    d.journal.Incidents(),
	}
}
