package microarch

import (
	"fmt"

	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/rng"
)

// Counters is the raw micro-event ledger of a core. Every field is a
// monotonically increasing count; the hpc package derives performance
// counter events as (possibly weighted) functions of deltas of these
// fields.
type Counters struct {
	Cycles            uint64
	Instructions      uint64
	UopsRetired       uint64
	LoadsDisp         uint64 // load micro-ops dispatched
	StoresDisp        uint64 // store micro-ops dispatched
	L1DAccesses       uint64
	L1DMisses         uint64
	L1DWrites         uint64
	RefillsFromL2     uint64 // L1D refills satisfied by L2
	RefillsFromSystem uint64 // L1D refills that went to memory
	L1IAccesses       uint64
	L1IMisses         uint64
	L2Accesses        uint64
	L2Misses          uint64
	MABAllocations    uint64 // miss-address-buffer allocations
	DTLBAccesses      uint64
	DTLBMisses        uint64
	ITLBMisses        uint64
	BranchesRet       uint64
	BranchMispred     uint64
	X87Ops            uint64
	SSEOps            uint64 // MMX+SSE family
	AVXOps            uint64
	MulOps            uint64
	DivOps            uint64
	BitOps            uint64
	StringOps         uint64
	CryptoOps         uint64
	Prefetches        uint64
	CacheFlushes      uint64
	Fences            uint64
	SerializeOps      uint64
	StackOps          uint64
	MemReads          uint64
	MemWrites         uint64
	PageFaults        uint64
	Interrupts        uint64
	CtxSwitches       uint64
}

// Sub returns the element-wise difference c - prev.
func (c Counters) Sub(prev Counters) Counters {
	return Counters{
		Cycles:            c.Cycles - prev.Cycles,
		Instructions:      c.Instructions - prev.Instructions,
		UopsRetired:       c.UopsRetired - prev.UopsRetired,
		LoadsDisp:         c.LoadsDisp - prev.LoadsDisp,
		StoresDisp:        c.StoresDisp - prev.StoresDisp,
		L1DAccesses:       c.L1DAccesses - prev.L1DAccesses,
		L1DMisses:         c.L1DMisses - prev.L1DMisses,
		L1DWrites:         c.L1DWrites - prev.L1DWrites,
		RefillsFromL2:     c.RefillsFromL2 - prev.RefillsFromL2,
		RefillsFromSystem: c.RefillsFromSystem - prev.RefillsFromSystem,
		L1IAccesses:       c.L1IAccesses - prev.L1IAccesses,
		L1IMisses:         c.L1IMisses - prev.L1IMisses,
		L2Accesses:        c.L2Accesses - prev.L2Accesses,
		L2Misses:          c.L2Misses - prev.L2Misses,
		MABAllocations:    c.MABAllocations - prev.MABAllocations,
		DTLBAccesses:      c.DTLBAccesses - prev.DTLBAccesses,
		DTLBMisses:        c.DTLBMisses - prev.DTLBMisses,
		ITLBMisses:        c.ITLBMisses - prev.ITLBMisses,
		BranchesRet:       c.BranchesRet - prev.BranchesRet,
		BranchMispred:     c.BranchMispred - prev.BranchMispred,
		X87Ops:            c.X87Ops - prev.X87Ops,
		SSEOps:            c.SSEOps - prev.SSEOps,
		AVXOps:            c.AVXOps - prev.AVXOps,
		MulOps:            c.MulOps - prev.MulOps,
		DivOps:            c.DivOps - prev.DivOps,
		BitOps:            c.BitOps - prev.BitOps,
		StringOps:         c.StringOps - prev.StringOps,
		CryptoOps:         c.CryptoOps - prev.CryptoOps,
		Prefetches:        c.Prefetches - prev.Prefetches,
		CacheFlushes:      c.CacheFlushes - prev.CacheFlushes,
		Fences:            c.Fences - prev.Fences,
		SerializeOps:      c.SerializeOps - prev.SerializeOps,
		StackOps:          c.StackOps - prev.StackOps,
		MemReads:          c.MemReads - prev.MemReads,
		MemWrites:         c.MemWrites - prev.MemWrites,
		PageFaults:        c.PageFaults - prev.PageFaults,
		Interrupts:        c.Interrupts - prev.Interrupts,
		CtxSwitches:       c.CtxSwitches - prev.CtxSwitches,
	}
}

// Vector flattens the counters into a fixed-order float slice; the hpc
// event catalog addresses raw signals by these indices.
func (c Counters) Vector() []float64 {
	return c.VectorInto(nil)
}

// VectorInto writes the counters into dst in Vector order and returns the
// filled slice. dst's backing array is reused when it has capacity for
// NumSignals elements, so per-tick readers can flatten deltas without
// allocating.
func (c Counters) VectorInto(dst []float64) []float64 {
	if cap(dst) < NumSignals {
		dst = make([]float64, NumSignals)
	}
	dst = dst[:NumSignals]
	dst[0] = float64(c.Cycles)
	dst[1] = float64(c.Instructions)
	dst[2] = float64(c.UopsRetired)
	dst[3] = float64(c.LoadsDisp)
	dst[4] = float64(c.StoresDisp)
	dst[5] = float64(c.L1DAccesses)
	dst[6] = float64(c.L1DMisses)
	dst[7] = float64(c.L1DWrites)
	dst[8] = float64(c.RefillsFromL2)
	dst[9] = float64(c.RefillsFromSystem)
	dst[10] = float64(c.L1IAccesses)
	dst[11] = float64(c.L1IMisses)
	dst[12] = float64(c.L2Accesses)
	dst[13] = float64(c.L2Misses)
	dst[14] = float64(c.MABAllocations)
	dst[15] = float64(c.DTLBAccesses)
	dst[16] = float64(c.DTLBMisses)
	dst[17] = float64(c.ITLBMisses)
	dst[18] = float64(c.BranchesRet)
	dst[19] = float64(c.BranchMispred)
	dst[20] = float64(c.X87Ops)
	dst[21] = float64(c.SSEOps)
	dst[22] = float64(c.AVXOps)
	dst[23] = float64(c.MulOps)
	dst[24] = float64(c.DivOps)
	dst[25] = float64(c.BitOps)
	dst[26] = float64(c.StringOps)
	dst[27] = float64(c.CryptoOps)
	dst[28] = float64(c.Prefetches)
	dst[29] = float64(c.CacheFlushes)
	dst[30] = float64(c.Fences)
	dst[31] = float64(c.SerializeOps)
	dst[32] = float64(c.StackOps)
	dst[33] = float64(c.MemReads)
	dst[34] = float64(c.MemWrites)
	dst[35] = float64(c.PageFaults)
	dst[36] = float64(c.Interrupts)
	dst[37] = float64(c.CtxSwitches)
	return dst
}

// SignalNames lists the raw signal names in Vector order.
func SignalNames() []string {
	return []string{
		"cycles", "instructions", "uops_retired",
		"loads_dispatched", "stores_dispatched",
		"l1d_accesses", "l1d_misses", "l1d_writes",
		"l1d_refills_l2", "l1d_refills_system",
		"l1i_accesses", "l1i_misses",
		"l2_accesses", "l2_misses",
		"mab_allocations",
		"dtlb_accesses", "dtlb_misses", "itlb_misses",
		"branches_retired", "branch_mispredicts",
		"x87_ops", "sse_ops", "avx_ops",
		"mul_ops", "div_ops", "bit_ops",
		"string_ops", "crypto_ops",
		"prefetches", "cache_flushes", "fences",
		"serialize_ops", "stack_ops",
		"mem_reads", "mem_writes",
		"page_faults", "interrupts", "ctx_switches",
	}
}

// NumSignals is the length of Counters.Vector().
var NumSignals = len(SignalNames())

// ExecContext supplies the dynamic operand values of an execution stream:
// where memory operands point and which way branches go. The fuzzer uses a
// fixed scratch page so reset/trigger sequences interact through the cache;
// workloads use larger working sets.
type ExecContext struct {
	// Base is the starting address of the data region.
	Base uint64
	// WorkingSet is the size in bytes of the region addresses are drawn
	// from. Zero means every access hits the same line (the fuzzer's
	// pre-allocated scratch page behaviour).
	WorkingSet uint64
	// PC is the current instruction address; it advances per instruction.
	PC uint64
	// Rand drives address and branch-direction draws; nil makes the
	// context fully deterministic (always offset 0, branches taken).
	Rand *rng.Source
}

// NewScratchContext returns the fuzzer's execution context: a dedicated
// writable data page, every memory operand resolving to the same line
// (paper §VI-D: registers used as memory operands are initialised to the
// address of a pre-allocated data page).
func NewScratchContext(base uint64) *ExecContext {
	return &ExecContext{Base: base, PC: 0x400000}
}

// NewWorkloadContext returns a context whose memory operands range over a
// working set, producing realistic cache behaviour.
func NewWorkloadContext(base, workingSet uint64, r *rng.Source) *ExecContext {
	return &ExecContext{Base: base, WorkingSet: workingSet, PC: 0x400000, Rand: r}
}

// dataAddr picks the next memory operand address.
func (e *ExecContext) dataAddr() uint64 {
	if e.WorkingSet == 0 || e.Rand == nil {
		return e.Base
	}
	return e.Base + e.Rand.Uint64()%e.WorkingSet
}

// branchTaken picks the direction of a conditional branch.
func (e *ExecContext) branchTaken() bool {
	if e.Rand == nil {
		return true
	}
	return e.Rand.Bernoulli(0.6)
}

// CoreConfig sizes the micro-architecture of a simulated core. The defaults
// approximate a Zen-2 class core (AMD EPYC 7252).
type CoreConfig struct {
	L1DSets, L1DWays int
	L1ISets, L1IWays int
	L2Sets, L2Ways   int
	LineSize         int
	TLBEntries       int
	PredictorEntries int
	// InterruptRate is the expected number of spurious hardware
	// interrupts per million instructions; interrupts flush the TLB and
	// pollute counters, modelling the paper's C2 non-determinism.
	InterruptRate float64
}

// DefaultCoreConfig returns the Zen-2 class configuration.
func DefaultCoreConfig() CoreConfig {
	return CoreConfig{
		L1DSets: 64, L1DWays: 8,
		L1ISets: 64, L1IWays: 8,
		L2Sets: 1024, L2Ways: 8,
		LineSize:         64,
		TLBEntries:       64,
		PredictorEntries: 4096,
		InterruptRate:    30,
	}
}

// Core simulates one physical CPU core.
type Core struct {
	ID   int
	L1D  *Cache
	L1I  *Cache
	L2   *Cache
	TLB  *TLB
	BP   *BranchPredictor
	ctrs Counters

	interruptRate float64
	noise         *rng.Source
}

// NewCore builds a core with the given configuration and noise stream.
func NewCore(id int, cfg CoreConfig, noise *rng.Source) *Core {
	return NewCoreWithL2(id, cfg, noise, nil)
}

// NewCoreWithL2 builds a core that uses the given L2 cache instead of a
// private one; passing the same cache to two cores models a shared L2
// complex, the substrate of cross-core cache-occupancy side channels. A
// nil shared cache allocates a private L2.
func NewCoreWithL2(id int, cfg CoreConfig, noise *rng.Source, sharedL2 *Cache) *Core {
	l2 := sharedL2
	if l2 == nil {
		l2 = NewCache(CacheConfig{Name: "L2", Sets: cfg.L2Sets, Ways: cfg.L2Ways, LineSize: cfg.LineSize})
	}
	return &Core{
		ID:  id,
		L1D: NewCache(CacheConfig{Name: "L1D", Sets: cfg.L1DSets, Ways: cfg.L1DWays, LineSize: cfg.LineSize}),
		L1I: NewCache(CacheConfig{Name: "L1I", Sets: cfg.L1ISets, Ways: cfg.L1IWays, LineSize: cfg.LineSize}),
		L2:  l2,
		TLB: NewTLB(cfg.TLBEntries, 4096),
		BP:  NewBranchPredictor(cfg.PredictorEntries),

		interruptRate: cfg.InterruptRate,
		noise:         noise,
	}
}

// Counters returns a snapshot of the core's raw counters.
func (c *Core) Counters() Counters { return c.ctrs }

// ErrIllegalInstruction reports execution of a variant that faults on this
// core; the fuzzer's cleanup step is expected to have removed them.
type ErrIllegalInstruction struct {
	Variant isa.Variant
	Fault   isa.FaultKind
}

func (e *ErrIllegalInstruction) Error() string {
	return fmt.Sprintf("microarch: %s faults with %s", e.Variant.Key(), e.Fault)
}

// Execute retires one instruction variant in the given context, updating
// caches, predictor and counters mechanistically. It returns an error for
// variants that fault (reserved encodings, privileged instructions).
func (c *Core) Execute(v isa.Variant, ctx *ExecContext) error {
	if v.Reserved || v.PageFaults || v.Privileged || v.Class == isa.ClassIO || v.Class == isa.ClassInvalid {
		kind := isa.FaultUD
		switch {
		case v.PageFaults:
			kind = isa.FaultPF
			c.ctrs.PageFaults++
		case v.Privileged, v.Class == isa.ClassIO:
			kind = isa.FaultGP
		}
		return &ErrIllegalInstruction{Variant: v, Fault: kind}
	}

	ctx.PC += 4
	c.ctrs.Instructions++
	uops := v.Uops
	if uops < 1 {
		uops = 1
	}
	c.ctrs.UopsRetired += uint64(uops)
	cycles := uint64(1)

	// Instruction fetch.
	if !c.L1I.Access(ctx.PC) {
		c.ctrs.L1IMisses++
		c.ctrs.L2Accesses++
		if !c.L2.Access(ctx.PC) {
			c.ctrs.L2Misses++
			cycles += 40
		} else {
			cycles += 8
		}
	}
	c.ctrs.L1IAccesses++

	// Memory reads.
	for i := 0; i < v.MemReads; i++ {
		cycles += c.dataAccess(ctx.dataAddr(), false)
	}
	// Memory writes.
	for i := 0; i < v.MemWrites; i++ {
		cycles += c.dataAccess(ctx.dataAddr(), true)
	}

	// Class-specific behaviour.
	switch v.Class {
	case isa.ClassALU, isa.ClassNop:
		// Plain retirement.
	case isa.ClassMul:
		c.ctrs.MulOps++
		cycles += 2
	case isa.ClassDiv:
		c.ctrs.DivOps++
		cycles += 20
	case isa.ClassBit:
		c.ctrs.BitOps++
	case isa.ClassLoad, isa.ClassStore, isa.ClassLoadStore:
		// Dispatch accounting happens in dataAccess.
	case isa.ClassBranch:
		taken := ctx.branchTaken()
		if c.BP.Resolve(ctx.PC, taken) {
			c.ctrs.BranchMispred++
			cycles += 14
		}
		c.ctrs.BranchesRet++
		if v.MemWrites > 0 || v.MemReads > 0 {
			c.ctrs.StackOps++ // CALL/RET stack engine activity
		}
	case isa.ClassX87:
		c.ctrs.X87Ops++
		cycles += 3
	case isa.ClassSSE:
		c.ctrs.SSEOps++
	case isa.ClassAVX:
		c.ctrs.AVXOps++
		cycles++
	case isa.ClassString:
		c.ctrs.StringOps++
		cycles += 4
	case isa.ClassCrypto:
		c.ctrs.CryptoOps++
		cycles += 2
	case isa.ClassPrefetch:
		addr := ctx.dataAddr()
		c.ctrs.Prefetches++
		// Prefetch pulls the line into L1D through L2 without counting a
		// demand access.
		if !c.L1D.Contains(addr) {
			c.L2.Insert(addr)
			c.L1D.Insert(addr)
		}
	case isa.ClassFlush:
		addr := ctx.dataAddr()
		c.ctrs.CacheFlushes++
		c.L1D.Flush(addr)
		c.L2.Flush(addr)
		cycles += 3
	case isa.ClassFence:
		c.ctrs.Fences++
		cycles += 4
	case isa.ClassSerial:
		c.ctrs.SerializeOps++
		cycles += 30
	}

	// Stack push/pop accounting.
	if v.Mnemonic == "PUSH" || v.Mnemonic == "POP" {
		c.ctrs.StackOps++
	}

	c.ctrs.Cycles += cycles

	// Spurious interrupts (paper challenge C2: HPCs cannot count
	// precisely because of external interference).
	if c.noise != nil && c.interruptRate > 0 {
		if c.noise.Float64() < c.interruptRate/1e6 {
			c.Interrupt()
		}
	}
	return nil
}

// dataAccess performs one data memory access and returns its cycle cost.
func (c *Core) dataAccess(addr uint64, write bool) uint64 {
	cycles := uint64(4)
	c.ctrs.DTLBAccesses++
	if !c.TLB.Access(addr) {
		c.ctrs.DTLBMisses++
		cycles += 7 // page walk
	}
	if write {
		c.ctrs.StoresDisp++
		c.ctrs.MemWrites++
		c.ctrs.L1DWrites++
	} else {
		c.ctrs.LoadsDisp++
		c.ctrs.MemReads++
	}
	c.ctrs.L1DAccesses++
	if !c.L1D.Access(addr) {
		c.ctrs.L1DMisses++
		c.ctrs.MABAllocations++
		c.ctrs.L2Accesses++
		if c.L2.Access(addr) {
			c.ctrs.RefillsFromL2++
			cycles += 8
		} else {
			c.ctrs.L2Misses++
			c.ctrs.RefillsFromSystem++
			cycles += 60
		}
	}
	return cycles
}

// ExecuteSequence retires a slice of variants in order, stopping at the
// first fault.
func (c *Core) ExecuteSequence(seq []isa.Variant, ctx *ExecContext) error {
	for _, v := range seq {
		if err := c.Execute(v, ctx); err != nil {
			return err
		}
	}
	return nil
}

// Interrupt models a hardware interrupt: kernel entry/exit pollutes the
// counters with a burst of unrelated activity and flushes the TLB.
func (c *Core) Interrupt() {
	c.ctrs.Interrupts++
	c.ctrs.Instructions += 180
	c.ctrs.UopsRetired += 250
	c.ctrs.Cycles += 900
	c.ctrs.L1DAccesses += 40
	c.ctrs.LoadsDisp += 25
	c.ctrs.StoresDisp += 15
	c.ctrs.MemReads += 25
	c.ctrs.MemWrites += 15
	c.ctrs.BranchesRet += 30
	c.TLB.Flush()
}
