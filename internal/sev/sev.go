// Package sev simulates the confidential-computing world of the paper's
// threat model: a host machine whose hypervisor launches guest VMs under
// AMD Secure Encrypted Virtualization. Guest memory and register state are
// opaque to the host, but the host retains full access to the physical
// cores' performance monitoring units — the HPC side channel Aegis defends
// against.
//
// Time advances in discrete ticks (one tick models one millisecond, the
// paper's HPC sampling interval). Each tick, every virtual CPU executes up
// to its instruction budget on the physical core it is pinned to; host
// monitors sample PMU deltas at tick boundaries.
package sev

import (
	"errors"
	"fmt"

	"github.com/repro/aegis/internal/faultinject"
	"github.com/repro/aegis/internal/microarch"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/telemetry"
	"github.com/repro/aegis/internal/telemetry/flight"
)

// World metrics: scheduler tick volume and VM lifecycle, the base rates
// every per-tick metric above them is normalised against.
var (
	mWorldTicks  = telemetry.C("sev_world_ticks_total")
	mVCPUSteps   = telemetry.C("sev_vcpu_steps_total")
	mVMsLaunched = telemetry.C("sev_vms_launched_total")
	gTickBudget  = telemetry.G("sev_tick_budget")
	// mDefenseSkipped counts vCPU ticks on which a defense sat in the
	// slot but the app ahead of it used the whole budget, so its Step
	// never ran: the starvation a saturated app imposes on it.
	mDefenseSkipped = telemetry.C("sev_defense_skipped_ticks_total")

	// fWorld journals a periodic world summary so a flight dump around an
	// incident shows the machine shape without needing full metrics.
	fWorld = flight.Get(flight.KindWorldStep)
)

// Errors returned by the SEV world.
var (
	ErrNoSuchVCPU   = errors.New("sev: no such vCPU")
	ErrNoSuchCore   = errors.New("sev: no such physical core")
	ErrCoreOccupied = errors.New("sev: physical core already has a vCPU pinned")
	ErrVCPUFull     = errors.New("sev: vCPU already holds an app and a defense")
)

// Config sizes the simulated host machine.
type Config struct {
	// Processor is the host CPU model string, reported by attestation.
	Processor string
	// PhysicalCores is the number of cores.
	PhysicalCores int
	// Core configures each core's micro-architecture.
	Core microarch.CoreConfig
	// TickBudget is the instruction capacity of one core for one tick.
	TickBudget int
	// SharedL2 makes core pairs (2i, 2i+1) share one L2 cache, the
	// complex topology behind cross-core cache-occupancy side channels
	// (the attack class the paper's §X proposes extending Aegis to).
	SharedL2 bool
	// Seed drives all stochastic behaviour in the world.
	Seed uint64
}

// DefaultConfig returns the paper's AMD testbed: an EPYC 7252 host with a
// 4-vCPU guest.
func DefaultConfig(seed uint64) Config {
	return Config{
		Processor:     "AMD EPYC 7252",
		PhysicalCores: 8,
		Core:          microarch.DefaultCoreConfig(),
		TickBudget:    2000,
		Seed:          seed,
	}
}

// Process is a guest workload entity scheduled on a vCPU. Step is called
// once per tick with an executor bounded by the tick's remaining
// instruction budget; implementations should stop when it is exhausted.
type Process interface {
	Step(g *GuestExecutor)
}

// GuestExecutor lets a guest process execute instructions on the physical
// core backing its vCPU during one tick.
type GuestExecutor struct {
	core   *microarch.Core
	ctx    *microarch.ExecContext
	budget int
	used   int
	tick   int64
	faults *faultinject.Handle
}

// ExecuteOp retires one decoded instruction if budget remains; it reports
// whether the instruction was executed.
func (g *GuestExecutor) ExecuteOp(op microarch.Op) (bool, error) {
	if g.used >= g.budget {
		return false, nil
	}
	if err := g.core.ExecuteOp(op, g.ctx); err != nil {
		return false, err
	}
	g.used++
	return true, nil
}

// ExecuteSeq retires a sequence of decoded instructions, stopping when the
// budget runs out; it returns the number of instructions executed. Under
// fault injection an interrupt (VM exit) can land mid-sequence, in which
// case fewer instructions retire even though budget remains — callers
// distinguish the two by checking Remaining. It is ExecuteRun after the
// interrupt draw.
func (g *GuestExecutor) ExecuteSeq(seq []microarch.Op) (int, error) {
	if stop, ok := g.faults.GadgetInterrupt(len(seq)); ok {
		seq = seq[:stop]
	}
	return g.ExecuteRun(seq)
}

// ExecuteRun retires ops in order, stopping when the budget runs out or
// an op faults; it returns the number retired. It retires exactly what
// ExecuteOp would op by op, with one budget check per run: the faulting
// op and the ops after it are not retired and use no budget.
func (g *GuestExecutor) ExecuteRun(seq []microarch.Op) (int, error) {
	if left := max(g.budget-g.used, 0); len(seq) > left {
		seq = seq[:left]
	}
	for i, op := range seq {
		if err := g.core.ExecuteOp(op, g.ctx); err != nil {
			g.used += i
			return i, err
		}
	}
	g.used += len(seq)
	return len(seq), nil
}

// Remaining returns the instruction budget left this tick.
func (g *GuestExecutor) Remaining() int { return g.budget - g.used }

// Used returns the instructions consumed so far this tick.
func (g *GuestExecutor) Used() int { return g.used }

// Tick returns the current world tick (guest-visible time).
func (g *GuestExecutor) Tick() int64 { return g.tick }

// Context returns the execution context (memory/branch behaviour) the
// process runs under; processes may retarget the working set.
func (g *GuestExecutor) Context() *microarch.ExecContext { return g.ctx }

// Core exposes the backing core for in-guest PMU reads (the paper's d*
// kernel module reads HPCs with RDPMC from inside the VM).
func (g *GuestExecutor) Core() *microarch.Core { return g.core }

// vcpu is one virtual CPU of a VM. It holds at most two processes, in
// typed slots: the app and the defense co-scheduled with it (paper
// §VII-C). A nil slot is empty.
type vcpu struct {
	physCore int
	app      Process
	defense  Process
	// defenseFirst says which slot runs first this tick. It flips after
	// every tick on which both slots are filled, so the two timeshare the
	// budget (otherwise the app could never be delayed, and the defense
	// would impose no latency on it); with one slot filled it never moves.
	defenseFirst bool
	ctx          *microarch.ExecContext
	// faultLabel identifies this vCPU in fault schedules ("vm0/vcpu1");
	// faults is derived lazily on the first Step after SetFaults. Labelling
	// by (vm, vcpu) — not by iteration order — keeps schedules independent
	// of Go's map ordering in World.Step.
	faultLabel string
	faults     *faultinject.Handle
	// exec is the per-tick guest executor, reused every Step so the tick
	// loop stays allocation-free. Processes must not retain it across
	// ticks (the Process.Step contract).
	exec GuestExecutor
	// usageSum/usageTicks accumulate the fraction of the tick budget
	// consumed per tick, for the whole-run CPUUsage mean.
	usageSum   float64
	usageTicks int64
}

// VM is a guest virtual machine.
type VM struct {
	id    int
	sev   bool
	world *World
	vcpus []*vcpu
	// memory is the guest's (plaintext) memory content; the SEV engine
	// encrypts it from the host's perspective. It is allocated on first
	// write; until then all memorySize bytes read as zero.
	memory     []byte
	memorySize int
}

// Attestation is the PSP attestation report the guest obtains at launch;
// the profiler uses the processor model to pick a matching template server
// (paper §V-B footnote).
type Attestation struct {
	Processor  string
	SEVVersion string
	VMID       int
	// Measurement is a launch digest placeholder.
	Measurement uint64
}

// World is the simulated host machine.
type World struct {
	cfg Config
	// cores has one slot per physical core. A core (with its shared-L2
	// partner) is built on first use, by a LaunchVM pin or Core, so a
	// world whose guests pin few of its cores never builds the rest.
	cores []*microarch.Core
	// vmOrder holds the VMs in launch order, indexed by VM id; Step
	// iterates it, so the tick loop is allocation-free and deterministic.
	vmOrder []*VM
	// pinned counts the cores holding a vCPU. Cores are pinned in index
	// order and never freed, so cores[pinned:] are the free ones.
	pinned int
	tick   int64
	rand   *rng.Source
	faults *faultinject.Injector
}

// SetFaults attaches a fault injector to the world: vCPUs start suffering
// preemption bursts and mid-gadget interrupts. A nil injector (the
// default) is the healthy substrate. Call before or after LaunchVM;
// handles are derived lazily per (vm, vcpu) on the next Step.
func (w *World) SetFaults(in *faultinject.Injector) {
	w.faults = in
	for _, vm := range w.vmOrder {
		for _, vc := range vm.vcpus {
			vc.faults = nil
		}
	}
}

// NewWorld builds a host machine.
func NewWorld(cfg Config) *World {
	if cfg.PhysicalCores < 1 {
		cfg.PhysicalCores = 1
	}
	if cfg.TickBudget < 1 {
		cfg.TickBudget = 1000
	}
	// Last world wins: the gauge feeds the ops overhead-budget tracker,
	// which observes the live deployment, not retired test worlds.
	gTickBudget.Set(float64(cfg.TickBudget))
	return &World{
		cfg:   cfg,
		cores: make([]*microarch.Core, cfg.PhysicalCores),
		rand:  rng.New(cfg.Seed).Split("sev/world"),
	}
}

// core returns physical core i, building it on first use from its own
// SplitN("core-noise", i) stream. Split never advances the parent, so the
// core is the same whenever it is built. Under SharedL2 the pair
// (2k, 2k+1) is built together around one L2.
func (w *World) core(i int) *microarch.Core {
	if c := w.cores[i]; c != nil {
		return c
	}
	if !w.cfg.SharedL2 {
		w.cores[i] = microarch.NewCore(i, w.cfg.Core, w.rand.SplitN("core-noise", i))
		return w.cores[i]
	}
	l2 := microarch.NewCache(microarch.CacheConfig{
		Name: "L2-shared", Sets: w.cfg.Core.L2Sets, Ways: w.cfg.Core.L2Ways,
		LineSize: w.cfg.Core.LineSize,
	})
	for j := i &^ 1; j <= i|1 && j < len(w.cores); j++ {
		w.cores[j] = microarch.NewCoreWithL2(j, w.cfg.Core, w.rand.SplitN("core-noise", j), l2)
	}
	return w.cores[i]
}

// Tick returns the current tick count.
func (w *World) Tick() int64 { return w.tick }

// Core returns a physical core. The malicious host owns the hardware, so
// this is host-privileged access (used to attach PMUs);
// guest confidentiality is enforced at the VM API layer, not here.
func (w *World) Core(i int) (*microarch.Core, error) {
	if i < 0 || i >= len(w.cores) {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchCore, i)
	}
	return w.core(i), nil
}

// VMConfig configures a guest launch.
type VMConfig struct {
	// VCPUs is the number of virtual CPUs; each is pinned to a dedicated
	// physical core chosen by the hypervisor.
	VCPUs int
	// SEV enables memory encryption at the SEV-SNP level (the paper's
	// threat model).
	SEV bool
	// MemoryBytes sizes guest memory.
	MemoryBytes int
}

// LaunchVM starts a guest VM, pinning each vCPU to a free physical core.
func (w *World) LaunchVM(cfg VMConfig) (*VM, error) {
	if cfg.VCPUs < 1 {
		cfg.VCPUs = 1
	}
	if cfg.MemoryBytes <= 0 {
		cfg.MemoryBytes = 1 << 20
	}
	if free := len(w.cores) - w.pinned; free < cfg.VCPUs {
		return nil, fmt.Errorf("%w: need %d cores, %d free", ErrCoreOccupied, cfg.VCPUs, free)
	}
	vm := &VM{
		id:         len(w.vmOrder),
		sev:        cfg.SEV,
		world:      w,
		memorySize: cfg.MemoryBytes,
	}
	for i := 0; i < cfg.VCPUs; i++ {
		core := w.pinned
		w.pinned++
		vc := &vcpu{
			physCore:   core,
			faultLabel: fmt.Sprintf("vm%d/vcpu%d", vm.id, i),
			ctx: microarch.NewWorkloadContext(
				uint64(vm.id+1)<<32, 1<<20,
				w.rand.SplitN(fmt.Sprintf("vm%d-vcpu", vm.id), i)),
		}
		vm.vcpus = append(vm.vcpus, vc)
		w.core(core) // built here so Step never allocates one
	}
	w.vmOrder = append(w.vmOrder, vm)
	mVMsLaunched.Inc()
	return vm, nil
}

// Step advances the world by one tick: on every vCPU the slot whose turn
// it is runs first on the physical core, and the other slot runs only if
// budget remains.
//
// The steady-state path is allocation-free: gated dynamically by TestZeroAllocWorldStep
// (alloc_gate_test.go, `make bench-alloc`) and statically by the
// aegis-lint hotpath rule, which bans allocating constructs in any
// function carrying this annotation.
//
//aegis:hotpath
func (w *World) Step() {
	w.tick++
	mWorldTicks.Inc()
	vcpuSteps := 0
	for _, vm := range w.vmOrder {
		for _, vc := range vm.vcpus {
			mVCPUSteps.Inc()
			vcpuSteps++
			core := w.cores[vc.physCore]
			if w.faults != nil && vc.faults == nil {
				vc.faults = w.faults.Handle("sev", vc.faultLabel)
			}
			// A preemption burst slashes the budget for this tick: the
			// hypervisor is running something else (or single-stepping us).
			budget := vc.faults.PreemptBudget(w.cfg.TickBudget)
			g := &vc.exec
			*g = GuestExecutor{
				core:   core,
				ctx:    vc.ctx,
				budget: budget,
				tick:   w.tick,
				faults: vc.faults,
			}
			switch {
			case vc.app != nil && vc.defense != nil:
				first, second := vc.app, vc.defense
				if vc.defenseFirst {
					first, second = second, first
				}
				first.Step(g)
				if g.Remaining() > 0 {
					second.Step(g)
				} else if !vc.defenseFirst {
					mDefenseSkipped.Inc()
				}
				vc.defenseFirst = !vc.defenseFirst
			case vc.app != nil:
				vc.app.Step(g)
			case vc.defense != nil:
				vc.defense.Step(g)
			}
			vc.usageSum += float64(g.used) / float64(w.cfg.TickBudget)
			vc.usageTicks++
		}
	}
	if w.tick%worldSummaryEvery == 0 {
		fWorld.Record(w.tick, flight.CodeWorldSummary, flight.CodeNone,
			float64(len(w.vmOrder)), float64(vcpuSteps), 0)
	}
}

// worldSummaryEvery is the world-summary journaling period: sparse enough
// that summaries never crowd per-tick records out of the flight ring.
const worldSummaryEvery = 64

// Run advances the world by n ticks.
func (w *World) Run(n int) {
	for i := 0; i < n; i++ {
		w.Step()
	}
}

// PhysicalCore returns the physical core index a vCPU is pinned to. The
// hypervisor knows the mapping; what it cannot see is which guest process
// runs on the vCPU (paper §VII-C: Aegis pins the obfuscator and the
// protected application to the same vCPU precisely because the host cannot
// separate them).
func (vm *VM) PhysicalCore(vcpuIdx int) (int, error) {
	if vcpuIdx < 0 || vcpuIdx >= len(vm.vcpus) {
		return 0, fmt.Errorf("%w: %d", ErrNoSuchVCPU, vcpuIdx)
	}
	return vm.vcpus[vcpuIdx].physCore, nil
}

// AddProcess schedules a guest process in the vCPU's first empty slot:
// the app slot, then the defense slot. A vCPU with both filled returns
// ErrVCPUFull.
func (vm *VM) AddProcess(vcpuIdx int, p Process) error {
	if vcpuIdx < 0 || vcpuIdx >= len(vm.vcpus) {
		return fmt.Errorf("%w: %d", ErrNoSuchVCPU, vcpuIdx)
	}
	vc := vm.vcpus[vcpuIdx]
	switch {
	case vc.app == nil:
		vc.app = p
	case vc.defense == nil:
		vc.defense = p
	default:
		return fmt.Errorf("%w: %s", ErrVCPUFull, vc.faultLabel)
	}
	return nil
}

// SetDefense puts p in the vCPU's defense slot, replacing any defense
// already there. The slot keeps its turn, so a re-plan never changes the
// schedule.
func (vm *VM) SetDefense(vcpuIdx int, p Process) error {
	if vcpuIdx < 0 || vcpuIdx >= len(vm.vcpus) {
		return fmt.Errorf("%w: %d", ErrNoSuchVCPU, vcpuIdx)
	}
	vm.vcpus[vcpuIdx].defense = p
	return nil
}

// Attest returns the PSP attestation report.
func (vm *VM) Attest() Attestation {
	version := "none"
	if vm.sev {
		version = "SEV-SNP"
	}
	return Attestation{
		Processor:  vm.world.cfg.Processor,
		SEVVersion: version,
		VMID:       vm.id,
		Measurement: rng.HashString(
			fmt.Sprintf("%s/%d/%d", vm.world.cfg.Processor, vm.id, len(vm.vcpus))),
	}
}

// CPUUsage returns the vCPU's mean utilisation over every tick since
// launch, the measurement the paper's host-side `top` sampling performs
// for Fig. 10.
func (vm *VM) CPUUsage(vcpuIdx int) (float64, error) {
	if vcpuIdx < 0 || vcpuIdx >= len(vm.vcpus) {
		return 0, fmt.Errorf("%w: %d", ErrNoSuchVCPU, vcpuIdx)
	}
	vc := vm.vcpus[vcpuIdx]
	if vc.usageTicks == 0 {
		return 0, nil
	}
	return vc.usageSum / float64(vc.usageTicks), nil
}
