package microarch

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/rng"
)

func testCore(t *testing.T) *Core {
	t.Helper()
	return NewCore(0, DefaultCoreConfig(), nil) // nil noise: deterministic
}

func variantOf(t *testing.T, class isa.Class) isa.Variant {
	t.Helper()
	res := isa.Cleanup(isa.SpecAMDEpyc(1), isa.AMDEpycFeatures())
	for _, v := range res.Legal {
		if v.Class == class {
			return v
		}
	}
	t.Fatalf("no legal variant of class %v", class)
	return isa.Variant{}
}

func TestExecuteCountsInstructions(t *testing.T) {
	c := testCore(t)
	ctx := NewScratchContext(0x10000)
	v := variantOf(t, isa.ClassALU)
	for i := 0; i < 10; i++ {
		if err := c.ExecuteOp(Decode(&v), ctx); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Counters()[SigInstructions]; got != 10 {
		t.Errorf("instructions = %d, want 10", got)
	}
	if c.Counters()[SigUopsRetired] < 10 {
		t.Errorf("uops = %d, want >= 10", c.Counters()[SigUopsRetired])
	}
}

func TestLoadDispatchAndRefill(t *testing.T) {
	c := testCore(t)
	ctx := NewScratchContext(0x10000)
	load := variantOf(t, isa.ClassLoad)

	if err := c.ExecuteOp(Decode(&load), ctx); err != nil {
		t.Fatal(err)
	}
	ctrs := c.Counters()
	if ctrs[SigLoadsDisp] == 0 {
		t.Error("load dispatched no load µop")
	}
	// First access misses everywhere → refill from system + MAB alloc.
	if ctrs[SigRefillsFromSystem] == 0 {
		t.Error("cold load did not refill from system")
	}
	if ctrs[SigMABAllocations] == 0 {
		t.Error("cold load did not allocate a MAB entry")
	}

	before := c.Counters()
	if err := c.ExecuteOp(Decode(&load), ctx); err != nil {
		t.Fatal(err)
	}
	delta := c.Counters().Sub(before)
	if delta[SigL1DMisses] != 0 {
		t.Error("warm load missed L1D")
	}
}

func TestFlushThenLoadRefills(t *testing.T) {
	// The fundamental reset/trigger mechanism of the fuzzer: CLFLUSH
	// evicts the scratch line; the next load must miss and refill.
	c := testCore(t)
	ctx := NewScratchContext(0x10000)
	load := variantOf(t, isa.ClassLoad)
	flush := variantOf(t, isa.ClassFlush)

	// Warm the line.
	if err := c.ExecuteOp(Decode(&load), ctx); err != nil {
		t.Fatal(err)
	}
	before := c.Counters()
	if err := c.ExecuteOp(Decode(&flush), ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.ExecuteOp(Decode(&load), ctx); err != nil {
		t.Fatal(err)
	}
	delta := c.Counters().Sub(before)
	if delta[SigCacheFlushes] != 1 {
		t.Errorf("flushes = %d, want 1", delta[SigCacheFlushes])
	}
	if delta[SigRefillsFromSystem] != 1 {
		t.Errorf("refills from system = %d, want 1 (flush must evict L2 too)", delta[SigRefillsFromSystem])
	}
}

func TestPrefetchWarmsCache(t *testing.T) {
	c := testCore(t)
	ctx := NewScratchContext(0x20000)
	prefetch := variantOf(t, isa.ClassPrefetch)
	load := variantOf(t, isa.ClassLoad)

	if err := c.ExecuteOp(Decode(&prefetch), ctx); err != nil {
		t.Fatal(err)
	}
	before := c.Counters()
	if err := c.ExecuteOp(Decode(&load), ctx); err != nil {
		t.Fatal(err)
	}
	delta := c.Counters().Sub(before)
	if delta[SigL1DMisses] != 0 {
		t.Error("load missed after prefetch of same line")
	}
}

func TestStoreCountsWrites(t *testing.T) {
	c := testCore(t)
	ctx := NewScratchContext(0x30000)
	store := variantOf(t, isa.ClassStore)
	if err := c.ExecuteOp(Decode(&store), ctx); err != nil {
		t.Fatal(err)
	}
	ctrs := c.Counters()
	if ctrs[SigStoresDisp] == 0 || ctrs[SigL1DWrites] == 0 || ctrs[SigMemWrites] == 0 {
		t.Errorf("store accounting: dispatches=%d writes=%d mem=%d",
			ctrs[SigStoresDisp], ctrs[SigL1DWrites], ctrs[SigMemWrites])
	}
}

func TestVectorClassCounters(t *testing.T) {
	c := testCore(t)
	ctx := NewScratchContext(0x40000)
	for _, tc := range []struct {
		class isa.Class
		get   func(Counters) uint64
		name  string
	}{
		{isa.ClassSSE, func(c Counters) uint64 { return c[SigSSEOps] }, "sse"},
		{isa.ClassAVX, func(c Counters) uint64 { return c[SigAVXOps] }, "avx"},
		{isa.ClassX87, func(c Counters) uint64 { return c[SigX87Ops] }, "x87"},
		{isa.ClassDiv, func(c Counters) uint64 { return c[SigDivOps] }, "div"},
		{isa.ClassMul, func(c Counters) uint64 { return c[SigMulOps] }, "mul"},
		{isa.ClassCrypto, func(c Counters) uint64 { return c[SigCryptoOps] }, "crypto"},
		{isa.ClassSerial, func(c Counters) uint64 { return c[SigSerializeOps] }, "serialize"},
		{isa.ClassFence, func(c Counters) uint64 { return c[SigFences] }, "fence"},
		{isa.ClassString, func(c Counters) uint64 { return c[SigStringOps] }, "string"},
		{isa.ClassBit, func(c Counters) uint64 { return c[SigBitOps] }, "bit"},
	} {
		before := tc.get(c.Counters())
		v := variantOf(t, tc.class)
		if err := c.ExecuteOp(Decode(&v), ctx); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.get(c.Counters()) <= before {
			t.Errorf("%s counter did not advance", tc.name)
		}
	}
}

func TestBranchExecution(t *testing.T) {
	c := testCore(t)
	r := rng.New(5)
	ctx := NewWorkloadContext(0x50000, 1<<16, r)
	branch := variantOf(t, isa.ClassBranch)
	for i := 0; i < 200; i++ {
		if err := c.ExecuteOp(Decode(&branch), ctx); err != nil {
			t.Fatal(err)
		}
	}
	ctrs := c.Counters()
	if ctrs[SigBranchesRet] != 200 {
		t.Errorf("branches retired = %d, want 200", ctrs[SigBranchesRet])
	}
	if ctrs[SigBranchMispred] == 0 {
		t.Error("no mispredictions on 60/40 random branches")
	}
	if ctrs[SigBranchMispred] >= ctrs[SigBranchesRet] {
		t.Error("every branch mispredicted")
	}
}

func TestIllegalExecutionFaults(t *testing.T) {
	c := testCore(t)
	ctx := NewScratchContext(0x60000)
	reserved := isa.Variant{Mnemonic: "DB 0x0F", Reserved: true, Class: isa.ClassInvalid}
	err := c.ExecuteOp(Decode(&reserved), ctx)
	var illegal *ErrIllegalInstruction
	if !errors.As(err, &illegal) {
		t.Fatalf("err = %v, want ErrIllegalInstruction", err)
	}
	if illegal.Class != isa.ClassInvalid || illegal.Fault != isa.FaultUD {
		t.Errorf("fault = %v %v, want %v #UD", illegal.Class, illegal.Fault, isa.ClassInvalid)
	}

	priv := isa.Variant{Mnemonic: "RDMSR", Privileged: true, Class: isa.ClassSystem}
	err = c.ExecuteOp(Decode(&priv), ctx)
	if !errors.As(err, &illegal) || illegal.Class != isa.ClassSystem || illegal.Fault != isa.FaultGP {
		t.Errorf("privileged fault = %v, want %v #GP", err, isa.ClassSystem)
	}
	if want := "microarch: " + isa.ClassSystem.String() + " op faults with #GP"; err.Error() != want {
		t.Errorf("error %q, want %q", err, want)
	}
	if got := c.Counters()[SigInstructions]; got != 0 {
		t.Errorf("faulting ops retired %d instructions", got)
	}
}

func TestExecuteSequenceStopsAtFault(t *testing.T) {
	c := testCore(t)
	ctx := NewScratchContext(0x70000)
	alu := variantOf(t, isa.ClassALU)
	seq := []Op{
		Decode(&alu),
		Decode(&isa.Variant{Mnemonic: "BAD", Reserved: true, Class: isa.ClassInvalid}),
		Decode(&alu),
	}
	if err := c.ExecuteSequence(seq, ctx); err == nil {
		t.Fatal("sequence with fault returned nil error")
	}
	if got := c.Counters()[SigInstructions]; got != 1 {
		t.Errorf("instructions = %d, want 1 (stop at fault)", got)
	}
}

func TestWorkingSetDrivesMissRate(t *testing.T) {
	// Larger working sets must produce more L1D misses, the mechanism
	// that differentiates workload signatures.
	missRate := func(ws uint64) float64 {
		c := testCore(t)
		r := rng.New(9)
		ctx := NewWorkloadContext(0x100000, ws, r)
		load := variantOf(t, isa.ClassLoad)
		for i := 0; i < 5000; i++ {
			if err := c.ExecuteOp(Decode(&load), ctx); err != nil {
				t.Fatal(err)
			}
		}
		ctrs := c.Counters()
		return float64(ctrs[SigL1DMisses]) / float64(ctrs[SigL1DAccesses])
	}
	small := missRate(16 << 10) // fits in 32K L1D
	large := missRate(8 << 20)  // far exceeds L2
	if small >= large {
		t.Errorf("miss rates: small-ws %v >= large-ws %v", small, large)
	}
	if large < 0.5 {
		t.Errorf("large working set miss rate = %v, want > 0.5", large)
	}
}

func TestInterruptPollutesCounters(t *testing.T) {
	c := testCore(t)
	before := c.Counters()
	c.Interrupt()
	delta := c.Counters().Sub(before)
	if delta[SigInterrupts] != 1 || delta[SigInstructions] == 0 {
		t.Errorf("interrupt delta = %+v", delta)
	}
}

func TestInterruptNoiseRate(t *testing.T) {
	cfg := DefaultCoreConfig()
	cfg.InterruptRate = 1e5 // 10% per instruction: clearly visible
	c := NewCore(0, cfg, rng.New(7).Split("noise"))
	ctx := NewScratchContext(0x80000)
	alu := variantOf(t, isa.ClassALU)
	for i := 0; i < 1000; i++ {
		if err := c.ExecuteOp(Decode(&alu), ctx); err != nil {
			t.Fatal(err)
		}
	}
	if c.Counters()[SigInterrupts] == 0 {
		t.Error("no interrupts at 10% rate over 1000 instructions")
	}
}

// TestInterruptThresholdMatchesFloat64 checks the integer interrupt test
// against the float one it replaces: for each probability p, a draw whose
// top 53 bits are k is below drawThreshold(p) exactly when Float64 of the
// same draw, k/2⁵³, is below p, at the threshold and on both sides of it.
func TestInterruptThresholdMatchesFloat64(t *testing.T) {
	for _, p := range []float64{
		30 / 1e6, 1e-6, 1.0 / 3, 0.5, math.Nextafter(0.25, 1), math.Nextafter(1, 0),
		5e-324, math.Ldexp(1, -53), math.Ldexp(3, -54),
		0, math.Copysign(0, -1), -1, 1, 2, math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		below := drawThreshold(p)
		for _, k := range []uint64{0, 1, below - 1, below, below + 1, 1<<53 - 1} {
			if k >= 1<<53 {
				continue
			}
			if got, want := k < below, float64(k)/(1<<53) < p; got != want {
				t.Errorf("p %v: draw %#x below threshold %#x is %v, Float64 below p is %v", p, k, below, got, want)
			}
		}
	}
}

// TestSignalTablePinned pins the raw signal layout: the count and every
// name in index order. hpc formulas, trace rows and the artifact store's
// trace slabs and screening memos address signals by index, and the store
// fingerprints only the count, so a reordered table would decode a warm
// store wrongly without error. Re-pin only on purpose, with the store's
// fingerprints bumped.
func TestSignalTablePinned(t *testing.T) {
	h := sha256.New()
	fmt.Fprintf(h, "%d\n", NumSignals)
	seen := make(map[string]bool, NumSignals)
	for i, name := range signalNames {
		if name == "" || seen[name] {
			t.Errorf("signal %d: name %q is empty or repeated", i, name)
		}
		seen[name] = true
		fmt.Fprintf(h, "%s\n", name)
	}
	const want = "2ac1437925a61d74b85efe264a7420a4698a1ce794e5ee1d0a7c441c5de3535e"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("signal table digest = %s, want %s", got, want)
	}
}

func TestCountersVectorMatchesSignalNames(t *testing.T) {
	var c Counters
	for i := range c {
		c[i] = uint64(i + 1)
	}
	v := c.VectorInto(nil)
	if len(v) != len(signalNames) {
		t.Fatalf("VectorInto length %d, %d signal names", len(v), len(signalNames))
	}
	for i, x := range v {
		if x != float64(i+1) {
			t.Errorf("signal %d (%s) = %v, want %d", i, signalNames[i], x, i+1)
		}
	}
	buf := make([]float64, 0, NumSignals)
	if w := c.VectorInto(buf); &w[0] != &buf[:1][0] {
		t.Error("VectorInto did not reuse a buffer with room for every signal")
	}
}

func TestCountersSub(t *testing.T) {
	var a, b Counters
	a[SigInstructions], a[SigCycles], a[SigL1DMisses] = 10, 100, 3
	b[SigInstructions], b[SigCycles], b[SigL1DMisses] = 4, 40, 1
	d := a.Sub(b)
	if d[SigInstructions] != 6 || d[SigCycles] != 60 || d[SigL1DMisses] != 2 {
		t.Errorf("Sub = %+v", d)
	}
}

// TestCoreResetMatchesNewCore pins what "cold" means in one place: after
// seeded random loads, stores, flushes, branches and TLB churn, Reset must
// leave a core deep-equal to a fresh NewCore of the same config. A field
// added to Core later fails here until Reset handles it.
func TestCoreResetMatchesNewCore(t *testing.T) {
	var pool []isa.Variant
	for _, v := range isa.Cleanup(isa.SpecAMDEpyc(1), isa.AMDEpycFeatures()).Legal {
		switch v.Class {
		case isa.ClassLoad, isa.ClassStore, isa.ClassLoadStore, isa.ClassFlush,
			isa.ClassPrefetch, isa.ClassBranch, isa.ClassALU:
			pool = append(pool, v)
		}
	}
	odd := DefaultCoreConfig()
	odd.L1DSets, odd.L2Sets, odd.TLBEntries, odd.PredictorEntries = 48, 96, 7, 100
	for _, cfg := range []CoreConfig{DefaultCoreConfig(), odd} {
		for seed := uint64(1); seed <= 4; seed++ {
			r := rng.New(seed)
			c := NewCore(3, cfg, nil)
			ctx := NewWorkloadContext(0x10000, 1<<22, r.Split("ctx"))
			for i := 0; i < 5000; i++ {
				if r.Intn(500) == 0 {
					c.Interrupt()
					continue
				}
				if err := c.ExecuteOp(Decode(&pool[r.Intn(len(pool))]), ctx); err != nil {
					t.Fatal(err)
				}
			}
			fresh := NewCore(3, cfg, nil)
			if reflect.DeepEqual(c, fresh) {
				t.Fatalf("seed %d: the workload left the core cold; the test exercises nothing", seed)
			}
			c.Reset()
			if !reflect.DeepEqual(c, fresh) {
				t.Errorf("seed %d, config %+v: Reset core differs from NewCore", seed, cfg)
			}
		}
	}
}

// TestExecuteOpMatchesReference runs every variant of both full
// specifications, faulting ones included, plus out-of-range edge cases, on
// twin noisy cores: through ExecuteOp of the decoded op and through
// refExecute, the variant-based path ExecuteOp replaced. After every
// instruction the counters (PageFaults included), the contexts, the fault
// kinds and the error messages must agree; at the end the whole cores must.
func TestExecuteOpMatchesReference(t *testing.T) {
	variants := append(isa.SpecAMDEpyc(3).Variants, isa.SpecIntelXeonE5(3).Variants...)
	variants = append(variants, edgeVariants...)
	co, ctxO := newRefTwin(11, 5000) // exercise the interrupt draw on both paths
	cr, ctxR := newRefTwin(11, 5000)
	faulted := 0
	for i := range variants {
		if matchReference(t, co, ctxO, cr, ctxR, &variants[i]) {
			faulted++
		}
	}
	if !reflect.DeepEqual(co, cr) {
		t.Error("cores diverge after the full specifications")
	}
	if faulted == 0 || cr.ctrs[SigPageFaults] == 0 || cr.ctrs[SigInterrupts] == 0 || cr.ctrs[SigStackOps] == 0 {
		t.Errorf("run exercised too little: %d faults, %d page faults, %d interrupts, %d stack ops",
			faulted, cr.ctrs[SigPageFaults], cr.ctrs[SigInterrupts], cr.ctrs[SigStackOps])
	}
}

// FuzzExecuteOpMatchesReference builds arbitrary variants within the Op
// field widths (any class, out-of-range ones included, the PF/GP/UD flags,
// and a PUSH, POP or other mnemonic) and runs each a few times through
// ExecuteOp(Decode(v)) and refExecute on twin noisy cores.
func FuzzExecuteOpMatchesReference(f *testing.F) {
	mnemonics := [...]string{"PUSH", "POP", "ADD"}
	for _, v := range edgeVariants {
		var flags uint8
		for bit, set := range []bool{v.PageFaults, v.Privileged, v.Reserved} {
			if set {
				flags |= 1 << bit
			}
		}
		// Index is -1, so 255 and then "ADD", for any other mnemonic.
		f.Add(uint16(max(v.Uops, 0)), uint8(max(v.MemReads, 0)), uint8(max(v.MemWrites, 0)),
			int(v.Class), flags, uint8(slices.Index(mnemonics[:], v.Mnemonic)), uint64(1))
	}
	f.Fuzz(func(t *testing.T, uops uint16, reads, writes uint8, class int, flags, mnemonic uint8, seed uint64) {
		v := isa.Variant{
			Mnemonic:   mnemonics[min(mnemonic, 2)],
			Class:      isa.Class(class),
			Uops:       int(uops),
			MemReads:   int(reads),
			MemWrites:  int(writes),
			PageFaults: flags&1 != 0,
			Privileged: flags&2 != 0,
			Reserved:   flags&4 != 0,
		}
		co, ctxO := newRefTwin(seed, 1e5)
		cr, ctxR := newRefTwin(seed, 1e5)
		for i := 0; i < 4; i++ {
			matchReference(t, co, ctxO, cr, ctxR, &v)
		}
	})
}
