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
	"github.com/repro/aegis/internal/isa"
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

	// fWorld journals a periodic world summary so a flight dump around an
	// incident shows the machine shape without needing full metrics.
	fWorld = flight.Get(flight.KindWorldStep)
)

// Errors returned by the SEV world.
var (
	ErrEncrypted    = errors.New("sev: guest memory is encrypted")
	ErrNoSuchVM     = errors.New("sev: no such VM")
	ErrNoSuchVCPU   = errors.New("sev: no such vCPU")
	ErrNoSuchCore   = errors.New("sev: no such physical core")
	ErrCoreOccupied = errors.New("sev: physical core already has a vCPU pinned")
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
// instruction budget.
type Process interface {
	// Name identifies the process inside the guest.
	Name() string
	// Step runs up to one tick of work. Implementations should stop when
	// the executor's budget is exhausted.
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

// Execute retires one instruction if budget remains; it reports whether the
// instruction was executed.
func (g *GuestExecutor) Execute(v isa.Variant) (bool, error) {
	if g.used >= g.budget {
		return false, nil
	}
	if err := g.core.Execute(v, g.ctx); err != nil {
		return false, err
	}
	g.used++
	return true, nil
}

// ExecuteSeq retires a sequence, stopping when the budget runs out; it
// returns the number of instructions executed. Under fault injection an
// interrupt (VM exit) can land mid-sequence, in which case fewer
// instructions retire even though budget remains — callers distinguish the
// two by checking Remaining.
func (g *GuestExecutor) ExecuteSeq(seq []isa.Variant) (int, error) {
	if stop, ok := g.faults.GadgetInterrupt(len(seq)); ok {
		seq = seq[:stop]
	}
	n := 0
	for _, v := range seq {
		ok, err := g.Execute(v)
		if err != nil {
			return n, err
		}
		if !ok {
			return n, nil
		}
		n++
	}
	return n, nil
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

// vcpu is one virtual CPU of a VM.
type vcpu struct {
	physCore int
	procs    []Process
	ctx      *microarch.ExecContext
	// faultLabel identifies this vCPU in fault schedules ("vm0/vcpu1");
	// faults is derived lazily on the first Step after SetFaults. Labelling
	// by (vm, vcpu) — not by iteration order — keeps schedules independent
	// of Go's map ordering in World.Step.
	faultLabel string
	faults     *faultinject.Handle
	// nextFirst rotates which process runs first each tick, so co-located
	// processes timeshare the budget fairly (without this, a process
	// added later could never delay an earlier one, and the obfuscator
	// would impose no latency on the protected application).
	nextFirst int
	// exec is the per-tick guest executor, reused every Step so the tick
	// loop stays allocation-free. Processes must not retain it across
	// ticks (the Process.Step contract).
	exec GuestExecutor
	// usage history: fraction of tick budget consumed per tick. The
	// all-time aggregate lives in usageSum/usageTicks; per-tick samples
	// are kept in a fixed ring of the last usageWindow ticks so long runs
	// do not grow memory per tick. Windowed queries larger than the ring
	// fall back to the ring's span (no current caller asks for one).
	usageRing  []float64
	usageLen   int // filled ring entries, <= usageWindow
	usageNext  int // next ring write position
	usageSum   float64
	usageTicks int64
}

// usageWindow is the per-vcpu utilisation history retained for windowed
// CPUUsage queries; beyond it only the all-time mean survives.
const usageWindow = 4096

// VM is a guest virtual machine.
type VM struct {
	id      int
	version SEVVersion
	world   *World
	vcpus   []*vcpu
	// memory is the guest's (plaintext) memory content; the SEV engine
	// encrypts it from the host's perspective.
	memory []byte
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
	cfg   Config
	cores []*microarch.Core
	vms   map[int]*VM
	// vmOrder holds the live VMs in launch order; Step iterates it so the
	// tick loop is allocation-free and deterministic instead of following
	// Go's randomised map order. (Fault schedules are keyed by (vm, vcpu)
	// labels, so behaviour never depended on iteration order — this pins
	// the order anyway.)
	vmOrder []*VM
	pinned  map[int]*vcpu // physCore -> vcpu
	nextVM  int
	tick    int64
	rand    *rng.Source
	faults  *faultinject.Injector
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
	root := rng.New(cfg.Seed).Split("sev/world")
	w := &World{
		cfg:    cfg,
		vms:    make(map[int]*VM),
		pinned: make(map[int]*vcpu),
		rand:   root,
	}
	var sharedL2 *microarch.Cache
	for i := 0; i < cfg.PhysicalCores; i++ {
		noise := root.SplitN("core-noise", i)
		if !cfg.SharedL2 {
			w.cores = append(w.cores, microarch.NewCore(i, cfg.Core, noise))
			continue
		}
		if i%2 == 0 {
			sharedL2 = microarch.NewCache(microarch.CacheConfig{
				Name: "L2-shared", Sets: cfg.Core.L2Sets, Ways: cfg.Core.L2Ways,
				LineSize: cfg.Core.LineSize,
			})
		}
		w.cores = append(w.cores, microarch.NewCoreWithL2(i, cfg.Core, noise, sharedL2))
	}
	return w
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
	return w.cores[i], nil
}

// SEVVersion selects the generation of the encryption feature; each adds
// protections (paper §II-B): plain SEV encrypts memory only, SEV-ES also
// encrypts the register state on world switches, SEV-SNP adds memory
// integrity (Reverse Map Table).
type SEVVersion int

// SEV generations.
const (
	SEVDisabled SEVVersion = iota
	SEVPlain
	SEVES
	SEVSNP
)

func (v SEVVersion) String() string {
	switch v {
	case SEVDisabled:
		return "none"
	case SEVPlain:
		return "SEV"
	case SEVES:
		return "SEV-ES"
	case SEVSNP:
		return "SEV-SNP"
	default:
		return fmt.Sprintf("sev(%d)", int(v))
	}
}

// VMConfig configures a guest launch.
type VMConfig struct {
	// VCPUs is the number of virtual CPUs; each is pinned to a dedicated
	// physical core chosen by the hypervisor.
	VCPUs int
	// SEV enables memory encryption at the SEV-SNP level (the paper's
	// threat model). For finer control set Version instead.
	SEV bool
	// Version selects the SEV generation explicitly; zero with SEV=true
	// means SEV-SNP.
	Version SEVVersion
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
	free := make([]int, 0, len(w.cores))
	for i := range w.cores {
		if _, taken := w.pinned[i]; !taken {
			free = append(free, i)
		}
	}
	if len(free) < cfg.VCPUs {
		return nil, fmt.Errorf("%w: need %d cores, %d free", ErrCoreOccupied, cfg.VCPUs, len(free))
	}
	version := cfg.Version
	if version == SEVDisabled && cfg.SEV {
		version = SEVSNP
	}
	vm := &VM{
		id:      w.nextVM,
		version: version,
		world:   w,
		memory:  make([]byte, cfg.MemoryBytes),
	}
	w.nextVM++
	for i := 0; i < cfg.VCPUs; i++ {
		core := free[i]
		vc := &vcpu{
			physCore:   core,
			faultLabel: fmt.Sprintf("vm%d/vcpu%d", vm.id, i),
			usageRing:  make([]float64, usageWindow),
			ctx: microarch.NewWorkloadContext(
				uint64(vm.id+1)<<32, 1<<20,
				w.rand.SplitN(fmt.Sprintf("vm%d-vcpu", vm.id), i)),
		}
		vm.vcpus = append(vm.vcpus, vc)
		w.pinned[core] = vc
	}
	w.vms[vm.id] = vm
	w.vmOrder = append(w.vmOrder, vm)
	mVMsLaunched.Inc()
	return vm, nil
}

// DestroyVM tears down a guest and frees its cores.
func (w *World) DestroyVM(id int) error {
	vm, ok := w.vms[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchVM, id)
	}
	for _, vc := range vm.vcpus {
		delete(w.pinned, vc.physCore)
	}
	delete(w.vms, id)
	for i, v := range w.vmOrder {
		if v == vm {
			w.vmOrder = append(w.vmOrder[:i:i], w.vmOrder[i+1:]...)
			break
		}
	}
	return nil
}

// Step advances the world by one tick: every vCPU runs its processes
// round-robin on its physical core until the tick budget is exhausted.
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
			n := len(vc.procs)
			for i := 0; i < n; i++ {
				p := vc.procs[(vc.nextFirst+i)%n]
				p.Step(g)
				if g.Remaining() == 0 {
					break
				}
			}
			if n > 0 {
				vc.nextFirst = (vc.nextFirst + 1) % n
			}
			u := float64(g.used) / float64(w.cfg.TickBudget)
			vc.usageSum += u
			vc.usageTicks++
			vc.usageRing[vc.usageNext] = u
			vc.usageNext = (vc.usageNext + 1) % usageWindow
			if vc.usageLen < usageWindow {
				vc.usageLen++
			}
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

// ID returns the VM identifier.
func (vm *VM) ID() int { return vm.id }

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

// AddProcess schedules a guest process on a vCPU. Processes added to the
// same vCPU share its tick budget in arrival order.
func (vm *VM) AddProcess(vcpuIdx int, p Process) error {
	if vcpuIdx < 0 || vcpuIdx >= len(vm.vcpus) {
		return fmt.Errorf("%w: %d", ErrNoSuchVCPU, vcpuIdx)
	}
	vm.vcpus[vcpuIdx].procs = append(vm.vcpus[vcpuIdx].procs, p)
	return nil
}

// RemoveProcess unschedules the named process from a vCPU.
func (vm *VM) RemoveProcess(vcpuIdx int, name string) error {
	if vcpuIdx < 0 || vcpuIdx >= len(vm.vcpus) {
		return fmt.Errorf("%w: %d", ErrNoSuchVCPU, vcpuIdx)
	}
	procs := vm.vcpus[vcpuIdx].procs
	for i, p := range procs {
		if p.Name() == name {
			vm.vcpus[vcpuIdx].procs = append(procs[:i:i], procs[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("sev: process %q not found on vcpu %d", name, vcpuIdx)
}

// Attest returns the PSP attestation report.
func (vm *VM) Attest() Attestation {
	return Attestation{
		Processor:  vm.world.cfg.Processor,
		SEVVersion: vm.version.String(),
		VMID:       vm.id,
		Measurement: rng.HashString(
			fmt.Sprintf("%s/%d/%d", vm.world.cfg.Processor, vm.id, len(vm.vcpus))),
	}
}

// HostReadMemory is the hypervisor's attempt to read guest memory. Under
// SEV it fails: pages are encrypted with a key held by the PSP.
func (vm *VM) HostReadMemory(offset, n int) ([]byte, error) {
	if vm.version != SEVDisabled {
		return nil, ErrEncrypted
	}
	if offset < 0 || n < 0 || offset+n > len(vm.memory) {
		return nil, fmt.Errorf("sev: memory read out of range")
	}
	out := make([]byte, n)
	copy(out, vm.memory[offset:offset+n])
	return out, nil
}

// CPUUsage returns the vCPU's mean utilisation over the last n ticks, the
// measurement the paper's host-side `top` sampling performs for Fig. 10.
// lastN <= 0 (or larger than the history) means all ticks since launch.
// Windowed queries are answered exactly from the retained ring when
// lastN <= usageWindow; wider windows clamp to the ring's span.
func (vm *VM) CPUUsage(vcpuIdx, lastN int) (float64, error) {
	if vcpuIdx < 0 || vcpuIdx >= len(vm.vcpus) {
		return 0, fmt.Errorf("%w: %d", ErrNoSuchVCPU, vcpuIdx)
	}
	vc := vm.vcpus[vcpuIdx]
	if vc.usageTicks == 0 {
		return 0, nil
	}
	if lastN <= 0 || int64(lastN) >= vc.usageTicks {
		return vc.usageSum / float64(vc.usageTicks), nil
	}
	n := lastN
	if n > vc.usageLen {
		n = vc.usageLen
	}
	// Sum in chronological order, matching the pre-ring implementation's
	// float rounding exactly.
	start := vc.usageNext - n
	var sum float64
	for i := 0; i < n; i++ {
		sum += vc.usageRing[((start+i)%usageWindow+usageWindow)%usageWindow]
	}
	return sum / float64(n), nil
}
