package microarch

// Raw signal indices: the one layout of a core's micro-event ledger. The
// hpc catalog's event formulas, trace recordings' rows and the artifact
// store's profiler trace slabs and fuzzer screening memos all address
// signals by these indices, so reordering them changes every stored
// recording; TestSignalTablePinned fails until the new order is re-pinned.
const (
	SigCycles = iota
	SigInstructions
	SigUopsRetired
	SigLoadsDisp  // load micro-ops dispatched
	SigStoresDisp // store micro-ops dispatched
	SigL1DAccesses
	SigL1DMisses
	SigL1DWrites
	SigRefillsFromL2     // L1D refills satisfied by L2
	SigRefillsFromSystem // L1D refills that went to memory
	SigL1IAccesses
	SigL1IMisses
	SigL2Accesses
	SigL2Misses
	SigMABAllocations // miss-address-buffer allocations
	SigDTLBAccesses
	SigDTLBMisses
	SigITLBMisses
	SigBranchesRet
	SigBranchMispred
	SigX87Ops
	SigSSEOps // MMX+SSE family
	SigAVXOps
	SigMulOps
	SigDivOps
	SigBitOps
	SigStringOps
	SigCryptoOps
	SigPrefetches
	SigCacheFlushes
	SigFences
	SigSerializeOps
	SigStackOps
	SigMemReads
	SigMemWrites
	SigPageFaults
	SigInterrupts
	SigCtxSwitches

	// NumSignals is the number of raw signals.
	NumSignals
)

// signalNames names each raw signal, by index.
var signalNames = [NumSignals]string{
	SigCycles:            "cycles",
	SigInstructions:      "instructions",
	SigUopsRetired:       "uops_retired",
	SigLoadsDisp:         "loads_dispatched",
	SigStoresDisp:        "stores_dispatched",
	SigL1DAccesses:       "l1d_accesses",
	SigL1DMisses:         "l1d_misses",
	SigL1DWrites:         "l1d_writes",
	SigRefillsFromL2:     "l1d_refills_l2",
	SigRefillsFromSystem: "l1d_refills_system",
	SigL1IAccesses:       "l1i_accesses",
	SigL1IMisses:         "l1i_misses",
	SigL2Accesses:        "l2_accesses",
	SigL2Misses:          "l2_misses",
	SigMABAllocations:    "mab_allocations",
	SigDTLBAccesses:      "dtlb_accesses",
	SigDTLBMisses:        "dtlb_misses",
	SigITLBMisses:        "itlb_misses",
	SigBranchesRet:       "branches_retired",
	SigBranchMispred:     "branch_mispredicts",
	SigX87Ops:            "x87_ops",
	SigSSEOps:            "sse_ops",
	SigAVXOps:            "avx_ops",
	SigMulOps:            "mul_ops",
	SigDivOps:            "div_ops",
	SigBitOps:            "bit_ops",
	SigStringOps:         "string_ops",
	SigCryptoOps:         "crypto_ops",
	SigPrefetches:        "prefetches",
	SigCacheFlushes:      "cache_flushes",
	SigFences:            "fences",
	SigSerializeOps:      "serialize_ops",
	SigStackOps:          "stack_ops",
	SigMemReads:          "mem_reads",
	SigMemWrites:         "mem_writes",
	SigPageFaults:        "page_faults",
	SigInterrupts:        "interrupts",
	SigCtxSwitches:       "ctx_switches",
}

// Counters is the raw micro-event ledger of a core, indexed by the Sig*
// constants. Every entry is a monotonically increasing count; the hpc
// package derives performance counter events as (possibly weighted)
// functions of deltas of these entries.
type Counters [NumSignals]uint64

// Sub returns the element-wise difference c - prev.
func (c Counters) Sub(prev Counters) Counters {
	for i := range c {
		c[i] -= prev[i]
	}
	return c
}

// VectorInto writes the counters into dst as floats, in signal index order,
// and returns the filled slice. dst's backing array is reused when it has
// capacity for NumSignals elements, so per-tick readers can flatten deltas
// without allocating.
func (c Counters) VectorInto(dst []float64) []float64 {
	if cap(dst) < NumSignals {
		dst = make([]float64, NumSignals)
	}
	dst = dst[:NumSignals]
	for i := range c {
		dst[i] = float64(c[i])
	}
	return dst
}
