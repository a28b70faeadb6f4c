package microarch

import (
	"errors"
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
		if err := c.Execute(v, ctx); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Counters().Instructions; got != 10 {
		t.Errorf("instructions = %d, want 10", got)
	}
	if c.Counters().UopsRetired < 10 {
		t.Errorf("uops = %d, want >= 10", c.Counters().UopsRetired)
	}
}

func TestLoadDispatchAndRefill(t *testing.T) {
	c := testCore(t)
	ctx := NewScratchContext(0x10000)
	load := variantOf(t, isa.ClassLoad)

	if err := c.Execute(load, ctx); err != nil {
		t.Fatal(err)
	}
	ctrs := c.Counters()
	if ctrs.LoadsDisp == 0 {
		t.Error("load dispatched no load µop")
	}
	// First access misses everywhere → refill from system + MAB alloc.
	if ctrs.RefillsFromSystem == 0 {
		t.Error("cold load did not refill from system")
	}
	if ctrs.MABAllocations == 0 {
		t.Error("cold load did not allocate a MAB entry")
	}

	before := c.Counters()
	if err := c.Execute(load, ctx); err != nil {
		t.Fatal(err)
	}
	delta := c.Counters().Sub(before)
	if delta.L1DMisses != 0 {
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
	if err := c.Execute(load, ctx); err != nil {
		t.Fatal(err)
	}
	before := c.Counters()
	if err := c.Execute(flush, ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Execute(load, ctx); err != nil {
		t.Fatal(err)
	}
	delta := c.Counters().Sub(before)
	if delta.CacheFlushes != 1 {
		t.Errorf("flushes = %d, want 1", delta.CacheFlushes)
	}
	if delta.RefillsFromSystem != 1 {
		t.Errorf("refills from system = %d, want 1 (flush must evict L2 too)", delta.RefillsFromSystem)
	}
}

func TestPrefetchWarmsCache(t *testing.T) {
	c := testCore(t)
	ctx := NewScratchContext(0x20000)
	prefetch := variantOf(t, isa.ClassPrefetch)
	load := variantOf(t, isa.ClassLoad)

	if err := c.Execute(prefetch, ctx); err != nil {
		t.Fatal(err)
	}
	before := c.Counters()
	if err := c.Execute(load, ctx); err != nil {
		t.Fatal(err)
	}
	delta := c.Counters().Sub(before)
	if delta.L1DMisses != 0 {
		t.Error("load missed after prefetch of same line")
	}
}

func TestStoreCountsWrites(t *testing.T) {
	c := testCore(t)
	ctx := NewScratchContext(0x30000)
	store := variantOf(t, isa.ClassStore)
	if err := c.Execute(store, ctx); err != nil {
		t.Fatal(err)
	}
	ctrs := c.Counters()
	if ctrs.StoresDisp == 0 || ctrs.L1DWrites == 0 || ctrs.MemWrites == 0 {
		t.Errorf("store accounting: dispatches=%d writes=%d mem=%d",
			ctrs.StoresDisp, ctrs.L1DWrites, ctrs.MemWrites)
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
		{isa.ClassSSE, func(c Counters) uint64 { return c.SSEOps }, "sse"},
		{isa.ClassAVX, func(c Counters) uint64 { return c.AVXOps }, "avx"},
		{isa.ClassX87, func(c Counters) uint64 { return c.X87Ops }, "x87"},
		{isa.ClassDiv, func(c Counters) uint64 { return c.DivOps }, "div"},
		{isa.ClassMul, func(c Counters) uint64 { return c.MulOps }, "mul"},
		{isa.ClassCrypto, func(c Counters) uint64 { return c.CryptoOps }, "crypto"},
		{isa.ClassSerial, func(c Counters) uint64 { return c.SerializeOps }, "serialize"},
		{isa.ClassFence, func(c Counters) uint64 { return c.Fences }, "fence"},
		{isa.ClassString, func(c Counters) uint64 { return c.StringOps }, "string"},
		{isa.ClassBit, func(c Counters) uint64 { return c.BitOps }, "bit"},
	} {
		before := tc.get(c.Counters())
		if err := c.Execute(variantOf(t, tc.class), ctx); err != nil {
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
		if err := c.Execute(branch, ctx); err != nil {
			t.Fatal(err)
		}
	}
	ctrs := c.Counters()
	if ctrs.BranchesRet != 200 {
		t.Errorf("branches retired = %d, want 200", ctrs.BranchesRet)
	}
	if ctrs.BranchMispred == 0 {
		t.Error("no mispredictions on 60/40 random branches")
	}
	if ctrs.BranchMispred >= ctrs.BranchesRet {
		t.Error("every branch mispredicted")
	}
}

func TestIllegalExecutionFaults(t *testing.T) {
	c := testCore(t)
	ctx := NewScratchContext(0x60000)
	reserved := isa.Variant{Mnemonic: "DB 0x0F", Reserved: true, Class: isa.ClassInvalid}
	err := c.Execute(reserved, ctx)
	var illegal *ErrIllegalInstruction
	if !errors.As(err, &illegal) {
		t.Fatalf("err = %v, want ErrIllegalInstruction", err)
	}
	if illegal.Fault != isa.FaultUD {
		t.Errorf("fault = %v, want #UD", illegal.Fault)
	}

	priv := isa.Variant{Mnemonic: "RDMSR", Privileged: true, Class: isa.ClassSystem}
	err = c.Execute(priv, ctx)
	if !errors.As(err, &illegal) || illegal.Fault != isa.FaultGP {
		t.Errorf("privileged fault = %v, want #GP", err)
	}
}

func TestExecuteSequenceStopsAtFault(t *testing.T) {
	c := testCore(t)
	ctx := NewScratchContext(0x70000)
	seq := []isa.Variant{
		variantOf(t, isa.ClassALU),
		{Mnemonic: "BAD", Reserved: true, Class: isa.ClassInvalid},
		variantOf(t, isa.ClassALU),
	}
	if err := c.ExecuteSequence(seq, ctx); err == nil {
		t.Fatal("sequence with fault returned nil error")
	}
	if got := c.Counters().Instructions; got != 1 {
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
			if err := c.Execute(load, ctx); err != nil {
				t.Fatal(err)
			}
		}
		ctrs := c.Counters()
		return float64(ctrs.L1DMisses) / float64(ctrs.L1DAccesses)
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
	if delta.Interrupts != 1 || delta.Instructions == 0 {
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
		if err := c.Execute(alu, ctx); err != nil {
			t.Fatal(err)
		}
	}
	if c.Counters().Interrupts == 0 {
		t.Error("no interrupts at 10% rate over 1000 instructions")
	}
}

func TestCountersVectorMatchesSignalNames(t *testing.T) {
	var c Counters
	if len(c.Vector()) != NumSignals {
		t.Fatalf("Vector length %d != NumSignals %d", len(c.Vector()), NumSignals)
	}
	if len(SignalNames()) != NumSignals {
		t.Fatalf("SignalNames length mismatch")
	}
}

func TestCountersSub(t *testing.T) {
	a := Counters{Instructions: 10, Cycles: 100, L1DMisses: 3}
	b := Counters{Instructions: 4, Cycles: 40, L1DMisses: 1}
	d := a.Sub(b)
	if d.Instructions != 6 || d.Cycles != 60 || d.L1DMisses != 2 {
		t.Errorf("Sub = %+v", d)
	}
}
