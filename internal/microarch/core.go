package microarch

import (
	"fmt"
	"math"

	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/rng"
)

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
	ws := e.WorkingSet
	if ws == 0 || e.Rand == nil {
		return e.Base
	}
	if ws&(ws-1) == 0 { // the remainder modulo a power of two is a mask
		return e.Base + e.Rand.Uint64()&(ws-1)
	}
	return e.Base + e.Rand.Uint64()%ws
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
	// interruptBelow is drawThreshold(interruptRate/1e6): an instruction
	// interrupts when its noise draw's top 53 bits are below it.
	interruptBelow uint64
	noise          *rng.Source
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

		interruptRate:  cfg.InterruptRate,
		interruptBelow: drawThreshold(cfg.InterruptRate / 1e6),
		noise:          noise,
	}
}

// Counters returns a snapshot of the core's raw counters.
func (c *Core) Counters() Counters { return c.ctrs }

// Reset returns the core to the cold state NewCore builds: empty caches
// and TLB, a cleared predictor table and zeroed counters. It keeps the
// configuration and does not rewind the noise stream. A shared L2 is
// cleared too, under every core that shares it, so only a core with a
// private L2 (the fuzzer's) can be reset without disturbing another.
func (c *Core) Reset() {
	c.L1D.reset()
	c.L1I.reset()
	c.L2.reset()
	c.TLB.Flush()
	clear(c.BP.counters)
	c.ctrs = Counters{}
}

// ErrIllegalInstruction reports execution of an op that faults on this
// core; the fuzzer's cleanup step is expected to have removed them. The op
// carries only its class, so callers that know the instruction wrap the
// error with its name.
type ErrIllegalInstruction struct {
	Class isa.Class
	Fault isa.FaultKind
}

func (e *ErrIllegalInstruction) Error() string {
	return fmt.Sprintf("microarch: %s op faults with %s", e.Class, e.Fault)
}

// Op is an instruction variant decoded to exactly what a core reads to
// retire it, packed into one word. Workload libraries index a shared table
// of ops instead of holding variants, so a simulated instruction touches
// an 8-byte op instead of a 112-byte variant and its mnemonic string.
type Op uint64

// Op bit layout: micro-ops (at least 1), memory reads and writes, the
// isa.Class (0 for values outside the enumeration), the isa.FaultKind
// raised on execution (0 if the op retires), and the stack flag of PUSH
// and POP.
const (
	opUopsShift   = 0
	opReadsShift  = 16
	opWritesShift = 24
	opClassShift  = 32
	opFaultShift  = 40
	opStack       = Op(1) << 48
)

// Decode packs a variant into an Op. Micro-op counts below 1 retire as 1,
// and counts past the field widths saturate; no variant of either
// specification comes near them.
func Decode(v *isa.Variant) Op {
	op := Op(min(max(v.Uops, 1), math.MaxUint16))<<opUopsShift |
		Op(min(max(v.MemReads, 0), math.MaxUint8))<<opReadsShift |
		Op(min(max(v.MemWrites, 0), math.MaxUint8))<<opWritesShift
	if v.Class > 0 && v.Class <= isa.ClassInvalid {
		op |= Op(v.Class) << opClassShift
	}
	switch {
	case v.PageFaults:
		op |= Op(isa.FaultPF) << opFaultShift
	case v.Privileged, v.Class == isa.ClassIO:
		op |= Op(isa.FaultGP) << opFaultShift
	case v.Reserved, v.Class == isa.ClassInvalid:
		op |= Op(isa.FaultUD) << opFaultShift
	}
	if v.Mnemonic == "PUSH" || v.Mnemonic == "POP" {
		op |= opStack
	}
	return op
}

func (o Op) uops() uint64         { return uint64(o>>opUopsShift) & math.MaxUint16 }
func (o Op) reads() int           { return int(o>>opReadsShift) & math.MaxUint8 }
func (o Op) writes() int          { return int(o>>opWritesShift) & math.MaxUint8 }
func (o Op) fault() isa.FaultKind { return isa.FaultKind(o>>opFaultShift) & math.MaxUint8 }

// Class returns the op's micro-op class, or 0 for a class outside the isa
// enumeration.
func (o Op) Class() isa.Class { return isa.Class(o>>opClassShift) & math.MaxUint8 }

// WithoutStack returns o without the stack-engine count of PUSH and POP.
// An encoding alias of PUSH or POP decodes this way: its suffixed mnemonic
// is neither.
func (o Op) WithoutStack() Op { return o &^ opStack }

// ExecuteOp retires one decoded instruction in the given context, updating
// caches, predictor and counters mechanistically. It returns an error for
// ops that fault (reserved encodings, privileged instructions).
func (c *Core) ExecuteOp(op Op, ctx *ExecContext) error {
	if kind := op.fault(); kind != 0 {
		if kind == isa.FaultPF {
			c.ctrs[SigPageFaults]++
		}
		return &ErrIllegalInstruction{Class: op.Class(), Fault: kind}
	}

	ctx.PC += 4
	c.ctrs[SigInstructions]++
	c.ctrs[SigUopsRetired] += op.uops()
	cycles := uint64(1)

	// Instruction fetch.
	if !c.L1I.Access(ctx.PC) {
		c.ctrs[SigL1IMisses]++
		c.ctrs[SigL2Accesses]++
		if !c.L2.Access(ctx.PC) {
			c.ctrs[SigL2Misses]++
			cycles += 40
		} else {
			cycles += 8
		}
	}
	c.ctrs[SigL1IAccesses]++

	// Memory reads.
	for i := op.reads(); i > 0; i-- {
		cycles += c.dataAccess(ctx.dataAddr(), false)
	}
	// Memory writes.
	for i := op.writes(); i > 0; i-- {
		cycles += c.dataAccess(ctx.dataAddr(), true)
	}

	// Class-specific behaviour.
	switch op.Class() {
	case isa.ClassALU, isa.ClassNop:
		// Plain retirement.
	case isa.ClassMul:
		c.ctrs[SigMulOps]++
		cycles += 2
	case isa.ClassDiv:
		c.ctrs[SigDivOps]++
		cycles += 20
	case isa.ClassBit:
		c.ctrs[SigBitOps]++
	case isa.ClassLoad, isa.ClassStore, isa.ClassLoadStore:
		// Dispatch accounting happens in dataAccess.
	case isa.ClassBranch:
		taken := ctx.branchTaken()
		if c.BP.Resolve(ctx.PC, taken) {
			c.ctrs[SigBranchMispred]++
			cycles += 14
		}
		c.ctrs[SigBranchesRet]++
		if op.writes() > 0 || op.reads() > 0 {
			c.ctrs[SigStackOps]++ // CALL/RET stack engine activity
		}
	case isa.ClassX87:
		c.ctrs[SigX87Ops]++
		cycles += 3
	case isa.ClassSSE:
		c.ctrs[SigSSEOps]++
	case isa.ClassAVX:
		c.ctrs[SigAVXOps]++
		cycles++
	case isa.ClassString:
		c.ctrs[SigStringOps]++
		cycles += 4
	case isa.ClassCrypto:
		c.ctrs[SigCryptoOps]++
		cycles += 2
	case isa.ClassPrefetch:
		addr := ctx.dataAddr()
		c.ctrs[SigPrefetches]++
		// Prefetch pulls the line into L1D through L2 without counting a
		// demand access.
		if !c.L1D.Contains(addr) {
			c.L2.Access(addr)
			c.L1D.Access(addr)
		}
	case isa.ClassFlush:
		addr := ctx.dataAddr()
		c.ctrs[SigCacheFlushes]++
		c.L1D.Flush(addr)
		c.L2.Flush(addr)
		cycles += 3
	case isa.ClassFence:
		c.ctrs[SigFences]++
		cycles += 4
	case isa.ClassSerial:
		c.ctrs[SigSerializeOps]++
		cycles += 30
	}

	// Stack push/pop accounting.
	if op&opStack != 0 {
		c.ctrs[SigStackOps]++
	}

	c.ctrs[SigCycles] += cycles

	// Spurious interrupts (paper challenge C2: HPCs cannot count
	// precisely because of external interference).
	if c.noise != nil && c.interruptRate > 0 {
		if c.noise.Uint64()>>11 < c.interruptBelow {
			c.Interrupt()
		}
	}
	return nil
}

// drawThreshold returns the bound t with k < t exactly when the uniform
// rng.Source.Float64 drawn from the same word, k/2⁵³ for its top 53 bits
// k, is below p. k/2⁵³ and p·2⁵³ are exact in float64, so k/2⁵³ < p holds
// exactly when the integer k is below ⌈p·2⁵³⌉; t clamps that to [0, 2⁵³],
// and is 0 for NaN.
func drawThreshold(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(math.Ldexp(p, 53)))
}

// dataAccess performs one data memory access and returns its cycle cost.
// The TLB and L2 outcomes are counted as 0 or 1 rather than branched on:
// see Cache.access.
func (c *Core) dataAccess(addr uint64, write bool) uint64 {
	cycles := uint64(4)
	c.ctrs[SigDTLBAccesses]++
	tlbMiss := 1 - b2u(c.TLB.Access(addr))
	c.ctrs[SigDTLBMisses] += tlbMiss
	cycles += 7 * tlbMiss // page walk
	if write {
		c.ctrs[SigStoresDisp]++
		c.ctrs[SigMemWrites]++
		c.ctrs[SigL1DWrites]++
	} else {
		c.ctrs[SigLoadsDisp]++
		c.ctrs[SigMemReads]++
	}
	c.ctrs[SigL1DAccesses]++
	if !c.L1D.Access(addr) {
		c.ctrs[SigL1DMisses]++
		c.ctrs[SigMABAllocations]++
		c.ctrs[SigL2Accesses]++
		l2Hit := b2u(c.L2.Access(addr))
		c.ctrs[SigRefillsFromL2] += l2Hit
		c.ctrs[SigL2Misses] += 1 - l2Hit
		c.ctrs[SigRefillsFromSystem] += 1 - l2Hit
		cycles += 60 - 52*l2Hit // 8 cycles from L2, 60 from memory
	}
	return cycles
}

// b2u returns 1 for true and 0 for false.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// ExecuteSequence retires a slice of ops in order, stopping at the first
// fault.
func (c *Core) ExecuteSequence(seq []Op, ctx *ExecContext) error {
	for _, op := range seq {
		if err := c.ExecuteOp(op, ctx); err != nil {
			return err
		}
	}
	return nil
}

// Interrupt models a hardware interrupt: kernel entry/exit pollutes the
// counters with a burst of unrelated activity and flushes the TLB.
func (c *Core) Interrupt() {
	c.ctrs[SigInterrupts]++
	c.ctrs[SigInstructions] += 180
	c.ctrs[SigUopsRetired] += 250
	c.ctrs[SigCycles] += 900
	c.ctrs[SigL1DAccesses] += 40
	c.ctrs[SigLoadsDisp] += 25
	c.ctrs[SigStoresDisp] += 15
	c.ctrs[SigMemReads] += 25
	c.ctrs[SigMemWrites] += 15
	c.ctrs[SigBranchesRet] += 30
	c.TLB.Flush()
}
