package main

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"github.com/repro/aegis/internal/daemon"
	"github.com/repro/aegis/internal/faultinject"
	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/microarch"
	"github.com/repro/aegis/internal/obfuscator"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/sev"
	"github.com/repro/aegis/internal/telemetry"
	"github.com/repro/aegis/internal/workload"
)

// layerTimes accumulates one mirror tenant's host time per layer over the
// timed ticks, with the work counts that normalise it.
type layerTimes struct {
	tenantTick, jobs, world, runner, obf time.Duration
	ticks, jobCount                      int64
	runnerInstr, obfInstr                int64
}

func (l *layerTimes) add(o layerTimes) {
	l.tenantTick += o.tenantTick
	l.jobs += o.jobs
	l.world += o.world
	l.runner += o.runner
	l.obf += o.obf
	l.ticks += o.ticks
	l.jobCount += o.jobCount
	l.runnerInstr += o.runnerInstr
	l.obfInstr += o.obfInstr
}

// mirrorTenant re-creates one daemon tenant outside the daemon, from the
// public constructors daemon.Attach uses and the seeds it derives from
// (seed, "daemon", name), and repeats the daemon's per-tenant tick: load
// generation, the bounded queue, job hand-off and World.Step. Timing
// wrappers at the sev.Process boundary split World.Step into the app
// runner, the obfuscator and the world's own scheduling.
type mirrorTenant struct {
	name    string
	app     workload.App
	secrets []string
	world   *sev.World
	runner  *workload.Runner
	obf     *obfuscator.Obfuscator
	jobRng  *rng.Source

	queue       []int // ring of secret indexes, like the daemon's work queue
	qHead, qLen int
	seq         int64

	ticks, enqueued, processed, shed, degraded int64

	// timing is set on traced ticks; the wrappers read it.
	timing bool
	lt     layerTimes
}

// timedProcess times a guest process's Step and counts the instructions
// it retired, when its tenant is timing.
type timedProcess struct {
	sev.Process
	m     *mirrorTenant
	spent *time.Duration
	instr *int64
}

func (p timedProcess) Step(g *sev.GuestExecutor) {
	if !p.m.timing {
		p.Process.Step(g)
		return
	}
	used := g.Used()
	start := time.Now()
	p.Process.Step(g)
	*p.spent += time.Since(start)
	*p.instr += int64(g.Used() - used)
}

// buildApp builds an attach spec's app the way the daemon does, with
// tenantSecrets secrets.
func buildApp(name string) (workload.App, error) {
	switch name {
	case "website":
		return &workload.WebsiteApp{Sites: workload.Websites()[:tenantSecrets]}, nil
	case "keystroke":
		return &workload.KeystrokeApp{MaxKeys: tenantSecrets}, nil
	case "dnn":
		return &workload.DNNApp{}, nil
	default:
		return nil, fmt.Errorf("unknown app %q", name)
	}
}

// buildMechanism builds a daemon mechanism from its noise stream.
func buildMechanism(name string, r *rng.Source) (obfuscator.Mechanism, error) {
	switch name {
	case daemon.MechanismLaplace:
		return obfuscator.NewLaplaceMechanism(epsilon, sensitivity, r)
	case daemon.MechanismDStar:
		return obfuscator.NewDStarMechanism(epsilon, sensitivity, r)
	default:
		return nil, fmt.Errorf("unknown mechanism %q", name)
	}
}

// newMirrorTenant builds the mirror of a tenant attached as name running
// appName, in the order daemon.Attach builds it: the stream draws (world
// seed, library seed) and the process order on the vCPU must match.
func newMirrorTenant(spec fleetSpec, seed uint64, faults faultinject.Config, plan []isa.Variant, ref *hpc.Event, name, appName string) (*mirrorTenant, error) {
	app, err := buildApp(appName)
	if err != nil {
		return nil, err
	}
	seeds := rng.NewStream(seed, "daemon", name)
	world := sev.NewWorld(sev.Config{
		Processor:     "AMD EPYC 7252",
		PhysicalCores: 1,
		Core:          microarch.DefaultCoreConfig(),
		TickBudget:    tickBudget,
		Seed:          seeds.Uint64(),
	})
	if faults.Enabled() {
		faults.Seed = rng.NewStream(seed, "daemon", name, "faults").Uint64()
		world.SetFaults(faultinject.New(faults))
	}
	vm, err := world.LaunchVM(sev.VMConfig{VCPUs: 1, SEV: true, MemoryBytes: vmMemoryBytes})
	if err != nil {
		return nil, err
	}
	m := &mirrorTenant{
		name:    name,
		app:     app,
		secrets: app.Secrets(),
		world:   world,
		runner:  workload.NewRunner(name+"-app", workload.DefaultLibrary(seeds.Uint64()), seeds.Split("runner")),
		queue:   make([]int, queueCapacity),
	}
	m.jobRng = seeds.Split("jobs")
	if err := vm.AddProcess(0, timedProcess{m.runner, m, &m.lt.runner, &m.lt.runnerInstr}); err != nil {
		return nil, err
	}
	mech, err := buildMechanism(spec.mechanism, rng.NewStream(seed, "daemon", name, "mech").SplitN("gen", 0))
	if err != nil {
		return nil, err
	}
	m.obf, err = obfuscator.New(obfuscator.Config{
		Mechanism: mech,
		Segment:   plan,
		RefEvent:  ref,
		ClipBound: clipBound,
		Seed:      rng.NewStream(seed, "daemon", name, "plan").SplitN("gen", 0).Uint64(),
		Faults:    faults,
	})
	if err != nil {
		return nil, err
	}
	if err := vm.AddProcess(0, timedProcess{m.obf, m, &m.lt.obf, &m.lt.obfInstr}); err != nil {
		return nil, err
	}
	return m, nil
}

// push offers one job to the queue, counting it enqueued or shed.
func (m *mirrorTenant) push() {
	if m.qLen == len(m.queue) {
		m.shed++
		return
	}
	m.queue[(m.qHead+m.qLen)%len(m.queue)] = int(m.seq % int64(len(m.secrets)))
	m.seq++
	m.qLen++
	m.enqueued++
}

// submit offers jobs the way Daemon.Submit does.
func (m *mirrorTenant) submit(jobs int) {
	for i := 0; i < jobs; i++ {
		m.push()
	}
}

// step is one tenant tick, the daemon's runTick plus its barrier counts.
func (m *mirrorTenant) step(loadPerTick int) {
	var start time.Time
	if m.timing {
		start = time.Now()
	}
	for i := 0; i < loadPerTick; i++ {
		m.push()
	}
	for n := 0; n < maxItemsPerTick && m.qLen > 0; n++ {
		secret := m.queue[m.qHead]
		m.qHead = (m.qHead + 1) % len(m.queue)
		m.qLen--
		var jobStart time.Time
		if m.timing {
			jobStart = time.Now()
		}
		job, err := m.app.Job(m.secrets[secret], m.jobRng)
		if err == nil {
			m.runner.Enqueue(job)
			m.processed++
		} else {
			m.shed++
		}
		if m.timing {
			m.lt.jobs += time.Since(jobStart)
			m.lt.jobCount++
		}
	}
	var worldStart time.Time
	if m.timing {
		worldStart = time.Now()
	}
	m.world.Step()
	if m.timing {
		m.lt.world += time.Since(worldStart)
	}
	if info := m.obf.LastTick(); info.Tick == m.world.Tick() && info.Outcome == obfuscator.TickDegraded {
		m.degraded++
	}
	m.ticks++
	if m.timing {
		m.lt.tenantTick += time.Since(start)
		m.lt.ticks++
	}
}

// mismatch compares the mirror with the daemon's view of the same tenant
// and describes the first difference ("" when they agree).
func (m *mirrorTenant) mismatch(st daemon.TenantStatus) string {
	type view struct {
		Ticks, Depth, Enqueued, Processed, Shed, Degraded int64
		Protection                                        obfuscator.ProtectionReport
	}
	mine := view{m.ticks, int64(m.qLen), m.enqueued, m.processed, m.shed, m.degraded, m.obf.Report()}
	theirs := view{st.Ticks, int64(st.QueueDepth), st.Enqueued, st.Processed, st.Shed, st.DegradedTicks, st.Protection}
	if reflect.DeepEqual(mine, theirs) {
		return ""
	}
	return fmt.Sprintf("tenant %s: mirror %+v, daemon %+v", m.name, mine, theirs)
}

// tickMode says how a replayed tick runs: with telemetry on or off, and
// whether its layer times count.
type tickMode struct {
	telemetry, timed bool
}

// replayMirror replays a fleet's script through mirror tenants, tick-major
// with the daemon's fan-out so the tenants' work meets the same cache and
// CPU sharing it met inside the daemon. mode sets each tick's telemetry
// and timing to what the daemon run used. Each mirror is compared with the
// daemon's status of the same tenant (want, keyed by name): live tenants
// at the end, killed tenants just before their kill. It returns the summed
// layer times and the mismatches found.
func replayMirror(spec fleetSpec, seed uint64, script fleetScript, mode func(tick int) tickMode,
	want map[string]daemon.TenantStatus) (layerTimes, []string, error) {
	seg, ref := fleetPlan()
	faults, err := faultinject.Preset(spec.faults, seed)
	if err != nil {
		return layerTimes{}, nil, err
	}
	var (
		live     []*mirrorTenant
		all      []*mirrorTenant
		problems []string
	)
	compare := func(m *mirrorTenant) {
		st, ok := want[m.name]
		if !ok {
			problems = append(problems, fmt.Sprintf("tenant %s: no daemon status", m.name))
			return
		}
		if diff := m.mismatch(st); diff != "" {
			problems = append(problems, diff)
		}
	}
	apply := func(op fleetOp) error {
		switch op.kind {
		case opAttach:
			m, err := newMirrorTenant(spec, seed, faults, seg, ref, op.tenant, op.app)
			if err != nil {
				return err
			}
			live = append(live, m)
			all = append(all, m)
		case opKill:
			for i, m := range live {
				if m.name == op.tenant {
					compare(m)
					live = append(live[:i:i], live[i+1:]...)
					break
				}
			}
		case opSubmit:
			for _, m := range live {
				if m.name == op.tenant {
					m.submit(op.jobs)
				}
			}
		}
		return nil
	}
	for _, op := range script.initial {
		if err := apply(op); err != nil {
			return layerTimes{}, nil, err
		}
	}
	for tick := 1; tick < len(script.ops); tick++ {
		for _, op := range script.ops[tick] {
			if err := apply(op); err != nil {
				return layerTimes{}, nil, err
			}
		}
		md := mode(tick)
		telemetry.Default().SetEnabled(md.telemetry)
		for _, m := range live {
			m.timing = md.timed
		}
		fanOut(live, func(m *mirrorTenant) { m.step(spec.loadPerTick) })
	}
	for _, m := range live {
		compare(m)
	}
	var total layerTimes
	for _, m := range all {
		total.add(m.lt)
	}
	return total, problems, nil
}

// fanOut runs fn over the tenants across parallelism goroutines, the way
// Daemon.Step fans out its tick, and returns when all are done.
func fanOut(tenants []*mirrorTenant, fn func(*mirrorTenant)) {
	par := parallelism
	if par > len(tenants) {
		par = len(tenants)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(tenants) {
					return
				}
				fn(tenants[i])
			}
		}()
	}
	wg.Wait()
}
