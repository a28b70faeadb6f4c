package sev

import (
	"errors"
	"reflect"
	"testing"

	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/microarch"
	"github.com/repro/aegis/internal/rng"
)

// burnProc executes a fixed number of ALU instructions per tick and
// counts its Step calls and retired instructions.
type burnProc struct {
	perTick int
	instr   isa.Variant
	steps   int
	total   int
}

func (b *burnProc) Step(g *GuestExecutor) {
	b.steps++
	for i := 0; i < b.perTick; i++ {
		ok, err := g.ExecuteOp(microarch.Decode(&b.instr))
		if err != nil || !ok {
			return
		}
		b.total++
	}
}

func aluVariant(t testing.TB) isa.Variant {
	t.Helper()
	res := isa.Cleanup(isa.SpecAMDEpyc(1), isa.AMDEpycFeatures())
	for _, v := range res.Legal {
		if v.Class == isa.ClassALU {
			return v
		}
	}
	t.Fatal("no ALU variant")
	return isa.Variant{}
}

func TestLaunchAndAttest(t *testing.T) {
	w := NewWorld(DefaultConfig(1))
	vm, err := w.LaunchVM(VMConfig{VCPUs: 4, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	att := vm.Attest()
	if att.Processor != "AMD EPYC 7252" {
		t.Errorf("attested processor = %q", att.Processor)
	}
	if att.SEVVersion != "SEV-SNP" {
		t.Errorf("attested SEV version = %q", att.SEVVersion)
	}
	if len(vm.vcpus) != 4 {
		t.Errorf("vcpus = %d, want 4", len(vm.vcpus))
	}
}

func TestSEVBlocksHostMemoryRead(t *testing.T) {
	w := NewWorld(DefaultConfig(2))
	enc, err := w.LaunchVM(VMConfig{VCPUs: 1, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.GuestWriteMemory(0, []byte("secret")); err != nil {
		t.Fatal(err)
	}
	if _, err := enc.HostReadMemory(0, 6); !errors.Is(err, ErrEncrypted) {
		t.Errorf("host read of SEV guest = %v, want ErrEncrypted", err)
	}

	plain, err := w.LaunchVM(VMConfig{VCPUs: 1, SEV: false})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.GuestWriteMemory(0, []byte("public")); err != nil {
		t.Fatal(err)
	}
	data, err := plain.HostReadMemory(0, 6)
	if err != nil || string(data) != "public" {
		t.Errorf("host read of plain guest = %q, %v", data, err)
	}
}

func TestVCPUPinningDistinctCores(t *testing.T) {
	w := NewWorld(DefaultConfig(3))
	vm, err := w.LaunchVM(VMConfig{VCPUs: 4, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for i := 0; i < len(vm.vcpus); i++ {
		core, err := vm.PhysicalCore(i)
		if err != nil {
			t.Fatal(err)
		}
		if seen[core] {
			t.Fatalf("two vCPUs pinned to core %d", core)
		}
		seen[core] = true
	}
}

func TestLaunchFailsWhenCoresExhausted(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.PhysicalCores = 2
	w := NewWorld(cfg)
	if _, err := w.LaunchVM(VMConfig{VCPUs: 2, SEV: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.LaunchVM(VMConfig{VCPUs: 1, SEV: true}); !errors.Is(err, ErrCoreOccupied) {
		t.Errorf("overcommitted launch = %v, want ErrCoreOccupied", err)
	}
}

func TestStepExecutesProcesses(t *testing.T) {
	w := NewWorld(DefaultConfig(6))
	vm, err := w.LaunchVM(VMConfig{VCPUs: 1, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	p := &burnProc{perTick: 100, instr: aluVariant(t)}
	if err := vm.AddProcess(0, p); err != nil {
		t.Fatal(err)
	}
	w.Run(10)
	if p.total != 1000 {
		t.Errorf("process executed %d instructions, want 1000", p.total)
	}
}

func TestTickBudgetShared(t *testing.T) {
	cfg := DefaultConfig(7)
	cfg.TickBudget = 150
	w := NewWorld(cfg)
	vm, err := w.LaunchVM(VMConfig{VCPUs: 1, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	a := &burnProc{perTick: 100, instr: aluVariant(t)}
	b := &burnProc{perTick: 100, instr: aluVariant(t)}
	if err := vm.AddProcess(0, a); err != nil {
		t.Fatal(err)
	}
	if err := vm.AddProcess(0, b); err != nil {
		t.Fatal(err)
	}
	w.Step()
	if a.total != 100 {
		t.Errorf("first process got %d, want its full 100", a.total)
	}
	if b.total != 50 {
		t.Errorf("second process got %d, want the remaining 50", b.total)
	}
}

func TestCPUUsageMeasurement(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.TickBudget = 200
	w := NewWorld(cfg)
	vm, err := w.LaunchVM(VMConfig{VCPUs: 1, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	p := &burnProc{perTick: 100, instr: aluVariant(t)}
	if err := vm.AddProcess(0, p); err != nil {
		t.Fatal(err)
	}
	w.Run(20)
	usage, err := vm.CPUUsage(0)
	if err != nil {
		t.Fatal(err)
	}
	if usage < 0.45 || usage > 0.55 {
		t.Errorf("cpu usage = %v, want ~0.5", usage)
	}
}

func TestHostPMUSeesGuestActivity(t *testing.T) {
	// The core of the threat model: the host programs the PMU of the
	// physical core backing a SEV vCPU and observes guest work, even
	// though memory and registers are sealed.
	w := NewWorld(DefaultConfig(9))
	vm, err := w.LaunchVM(VMConfig{VCPUs: 1, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.AddProcess(0, &burnProc{perTick: 500, instr: aluVariant(t)}); err != nil {
		t.Fatal(err)
	}
	coreIdx, err := vm.PhysicalCore(0)
	if err != nil {
		t.Fatal(err)
	}
	core, err := w.Core(coreIdx)
	if err != nil {
		t.Fatal(err)
	}
	pmu := hpc.NewPMU(core, nil)
	cat := hpc.NewAMDEpyc7252Catalog(1)
	if err := pmu.Program(0, cat.MustByName("RETIRED_UOPS")); err != nil {
		t.Fatal(err)
	}
	w.Run(5)
	v, err := pmu.RDPMC(0)
	if err != nil {
		t.Fatal(err)
	}
	if v < 2000 {
		t.Errorf("host-visible uops = %v, want >= 2500 guest instructions", v)
	}
}

func TestGuestExecutorBudgetExhaustion(t *testing.T) {
	cfg := DefaultConfig(11)
	cfg.TickBudget = 10
	w := NewWorld(cfg)
	vm, err := w.LaunchVM(VMConfig{VCPUs: 1, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	p := &burnProc{perTick: 1000, instr: aluVariant(t)}
	if err := vm.AddProcess(0, p); err != nil {
		t.Fatal(err)
	}
	w.Step()
	if p.total != 10 {
		t.Errorf("process executed %d, want capped 10", p.total)
	}
	usage, _ := vm.CPUUsage(0)
	if usage != 1.0 {
		t.Errorf("usage = %v, want 1.0 at saturation", usage)
	}
}

func TestWorldErrors(t *testing.T) {
	w := NewWorld(DefaultConfig(12))
	if _, err := w.Core(-1); !errors.Is(err, ErrNoSuchCore) {
		t.Errorf("Core(-1) = %v", err)
	}
	vm, err := w.LaunchVM(VMConfig{VCPUs: 1, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.PhysicalCore(5); !errors.Is(err, ErrNoSuchVCPU) {
		t.Errorf("PhysicalCore(5) = %v", err)
	}
	if err := vm.AddProcess(9, &burnProc{}); !errors.Is(err, ErrNoSuchVCPU) {
		t.Errorf("AddProcess(9) = %v", err)
	}
	if _, err := vm.CPUUsage(9); !errors.Is(err, ErrNoSuchVCPU) {
		t.Errorf("CPUUsage(9) = %v", err)
	}
	if _, err := vm.HostReadMemory(-1, 4); err == nil {
		t.Error("negative offset read accepted")
	}
}

func TestGuestMemoryBounds(t *testing.T) {
	w := NewWorld(DefaultConfig(13))
	vm, err := w.LaunchVM(VMConfig{VCPUs: 1, SEV: false, MemoryBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.GuestWriteMemory(10, []byte("12345678")); err == nil {
		t.Error("out-of-range guest write accepted")
	}
	if _, err := vm.HostReadMemory(10, 8); err == nil {
		t.Error("out-of-range host read accepted")
	}
}

func TestCrossVMCoreIsolation(t *testing.T) {
	// Two SEV guests on different physical cores: activity in one must
	// not appear in the other core's counters (the HPC side channel is
	// per physical core; cross-core contamination would be a simulator
	// bug, not a paper behaviour).
	w := NewWorld(DefaultConfig(40))
	victim, err := w.LaunchVM(VMConfig{VCPUs: 1, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	neighbor, err := w.LaunchVM(VMConfig{VCPUs: 1, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := neighbor.AddProcess(0, &burnProc{perTick: 800, instr: aluVariant(t)}); err != nil {
		t.Fatal(err)
	}
	victimCoreIdx, err := victim.PhysicalCore(0)
	if err != nil {
		t.Fatal(err)
	}
	neighborCoreIdx, err := neighbor.PhysicalCore(0)
	if err != nil {
		t.Fatal(err)
	}
	if victimCoreIdx == neighborCoreIdx {
		t.Fatal("hypervisor pinned two VMs to one core")
	}
	victimCore, err := w.Core(victimCoreIdx)
	if err != nil {
		t.Fatal(err)
	}
	before := victimCore.Counters()
	w.Run(20)
	delta := victimCore.Counters().Sub(before)
	// The idle victim core sees at most stray interrupt noise.
	if delta.Instructions > 2000 {
		t.Errorf("idle victim core retired %d instructions while neighbor ran", delta.Instructions)
	}
	neighborCore, err := w.Core(neighborCoreIdx)
	if err != nil {
		t.Fatal(err)
	}
	if neighborCore.Counters().Instructions < 10000 {
		t.Errorf("neighbor core retired only %d instructions", neighborCore.Counters().Instructions)
	}
}

func TestSameVCPUProcessesShareCore(t *testing.T) {
	// The defense's pinning requirement: two processes on the same vCPU
	// execute on the same physical core, so their HPC contributions are
	// indistinguishable to the host (paper §VII-C).
	w := NewWorld(DefaultConfig(41))
	vm, err := w.LaunchVM(VMConfig{VCPUs: 1, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	a := &burnProc{perTick: 100, instr: aluVariant(t)}
	b := &burnProc{perTick: 100, instr: aluVariant(t)}
	if err := vm.AddProcess(0, a); err != nil {
		t.Fatal(err)
	}
	if err := vm.AddProcess(0, b); err != nil {
		t.Fatal(err)
	}
	coreIdx, err := vm.PhysicalCore(0)
	if err != nil {
		t.Fatal(err)
	}
	core, err := w.Core(coreIdx)
	if err != nil {
		t.Fatal(err)
	}
	w.Run(10)
	// The host sees the sum; it cannot attribute instructions to a or b.
	if got := core.Counters().Instructions; got != uint64(a.total+b.total) {
		t.Errorf("core retired %d, processes executed %d+%d", got, a.total, b.total)
	}
}

func TestSEVVersionAttestation(t *testing.T) {
	w := NewWorld(DefaultConfig(60))
	for _, c := range []struct {
		sev  bool
		want string
	}{{true, "SEV-SNP"}, {false, "none"}} {
		vm, err := w.LaunchVM(VMConfig{VCPUs: 1, SEV: c.sev})
		if err != nil {
			t.Fatal(err)
		}
		if got := vm.Attest().SEVVersion; got != c.want {
			t.Errorf("SEV=%v attested version = %q, want %q", c.sev, got, c.want)
		}
	}
}

func TestSharedL2CrossCoreContention(t *testing.T) {
	// With a shared L2 complex, a cache-thrashing neighbor on the sibling
	// core evicts the victim's L2 lines — the cross-core cache-occupancy
	// channel the paper's §X proposes extending Aegis to.
	missesWithNeighbor := func(shared, neighborActive bool) uint64 {
		cfg := DefaultConfig(80)
		cfg.SharedL2 = shared
		w := NewWorld(cfg)
		victim, err := w.LaunchVM(VMConfig{VCPUs: 1, SEV: true}) // core 0
		if err != nil {
			t.Fatal(err)
		}
		neighbor, err := w.LaunchVM(VMConfig{VCPUs: 1, SEV: true}) // core 1 (sibling)
		if err != nil {
			t.Fatal(err)
		}
		res := isa.Cleanup(isa.SpecAMDEpyc(1), isa.AMDEpycFeatures())
		var load isa.Variant
		for _, v := range res.Legal {
			if v.Class == isa.ClassLoad {
				load = v
				break
			}
		}
		// Victim repeatedly walks a small working set that fits in L2.
		victimProc := &wsProc{instr: load, perTick: 300, ws: 128 << 10}
		if err := victim.AddProcess(0, victimProc); err != nil {
			t.Fatal(err)
		}
		if neighborActive {
			// Neighbor thrashes a huge working set.
			if err := neighbor.AddProcess(0, &wsProc{instr: load, perTick: 1500, ws: 64 << 20}); err != nil {
				t.Fatal(err)
			}
		}
		victimCoreIdx, err := victim.PhysicalCore(0)
		if err != nil {
			t.Fatal(err)
		}
		core, err := w.Core(victimCoreIdx)
		if err != nil {
			t.Fatal(err)
		}
		w.Run(30) // warm
		before := core.Counters()
		w.Run(60)
		return core.Counters().Sub(before).L2Misses
	}

	quietShared := missesWithNeighbor(true, false)
	noisyShared := missesWithNeighbor(true, true)
	noisyPrivate := missesWithNeighbor(false, true)

	if noisyShared <= quietShared {
		t.Errorf("shared L2: neighbor thrash did not raise victim L2 misses (%d <= %d)",
			noisyShared, quietShared)
	}
	if noisyShared <= noisyPrivate*2 {
		t.Errorf("shared-L2 contention (%d misses) not clearly above private-L2 (%d)",
			noisyShared, noisyPrivate)
	}
}

// wsProc executes loads over a working set.
type wsProc struct {
	instr   isa.Variant
	perTick int
	ws      uint64
}

func (p *wsProc) Step(g *GuestExecutor) {
	g.Context().WorkingSet = p.ws
	for i := 0; i < p.perTick; i++ {
		ok, err := g.ExecuteOp(microarch.Decode(&p.instr))
		if err != nil || !ok {
			return
		}
	}
}

// GuestWriteMemory writes guest memory from inside the VM (always allowed).
func (vm *VM) GuestWriteMemory(offset int, data []byte) error {
	if offset < 0 || offset+len(data) > vm.memorySize {
		return errors.New("sev: memory write out of range")
	}
	if vm.memory == nil {
		vm.memory = make([]byte, vm.memorySize)
	}
	copy(vm.memory[offset:], data)
	return nil
}

// ErrEncrypted is HostReadMemory's refusal to read an SEV guest.
var ErrEncrypted = errors.New("sev: guest memory is encrypted")

// HostReadMemory is the hypervisor's attempt to read guest memory. Under
// SEV it fails: pages are encrypted with a key held by the PSP.
func (vm *VM) HostReadMemory(offset, n int) ([]byte, error) {
	if vm.sev {
		return nil, ErrEncrypted
	}
	if offset < 0 || n < 0 || offset+n > vm.memorySize {
		return nil, errors.New("sev: memory read out of range")
	}
	out := make([]byte, n)
	if vm.memory != nil {
		copy(out, vm.memory[offset:offset+n])
	}
	return out, nil
}

// TestLazyCoresMatchEagerBuild checks that building cores on first use, in
// any order, yields the cores an eager build from the same per-core noise
// streams does, with each shared-L2 pair around one cache.
func TestLazyCoresMatchEagerBuild(t *testing.T) {
	for _, shared := range []bool{false, true} {
		cfg := DefaultConfig(21)
		cfg.PhysicalCores = 5
		cfg.SharedL2 = shared
		w := NewWorld(cfg)
		root := rng.New(cfg.Seed).Split("sev/world")
		got := make([]*microarch.Core, cfg.PhysicalCores)
		for _, i := range []int{3, 4, 0, 2, 1} {
			c, err := w.Core(i)
			if err != nil {
				t.Fatal(err)
			}
			got[i] = c
		}
		var l2 *microarch.Cache
		for i, c := range got {
			noise := root.SplitN("core-noise", i)
			want := microarch.NewCore(i, cfg.Core, noise)
			if shared {
				if i%2 == 0 {
					l2 = microarch.NewCache(microarch.CacheConfig{
						Name: "L2-shared", Sets: cfg.Core.L2Sets, Ways: cfg.Core.L2Ways,
						LineSize: cfg.Core.LineSize,
					})
				}
				want = microarch.NewCoreWithL2(i, cfg.Core, noise, l2)
			}
			if !reflect.DeepEqual(c, want) {
				t.Errorf("shared=%v: lazily built core %d differs from the eager build", shared, i)
			}
			if i%2 == 1 && (got[i-1].L2 == c.L2) != shared {
				t.Errorf("shared=%v: cores %d and %d share an L2: %v", shared, i-1, i, got[i-1].L2 == c.L2)
			}
		}
	}
}

// TestGuestMemoryReadsZeroBeforeWrite checks that unwritten guest memory,
// which is not allocated yet, reads as zeros.
func TestGuestMemoryReadsZeroBeforeWrite(t *testing.T) {
	vm, err := NewWorld(DefaultConfig(22)).LaunchVM(VMConfig{VCPUs: 1, MemoryBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	data, err := vm.HostReadMemory(8, 16)
	if err != nil || string(data) != string(make([]byte, 16)) {
		t.Errorf("read of unwritten memory = %v, %v; want 16 zero bytes", data, err)
	}
}
