package microarch

import (
	"encoding/binary"
	"errors"
	"reflect"
	"slices"
	"testing"

	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/rng"
)

// refCache and refTLB are the reference model the flat Cache and TLB are
// checked against operation by operation: nested slices with per-way
// recency ranks, written as true LRU. The ranks never leave 0 (each starts
// at 0, and touch raises only ranks below the touched way's, which is 0),
// so a full set always evicts its last way; Cache and TLB implement that
// policy directly.

// refCache is a set-associative cache with per-way recency ranks.
type refCache struct {
	name     string
	sets     int
	ways     int
	lineBits uint
	// lines[set][way] holds the cached line's tag; lru[set][way] holds the
	// recency rank (0 = most recent).
	lines [][]uint64
	valid [][]bool
	lru   [][]uint8
}

// newRefCache builds a cache. Invalid configurations are normalised to small
// positive values so a zero-value config still yields a working cache.
func newRefCache(cfg CacheConfig) *refCache {
	if cfg.Sets < 1 {
		cfg.Sets = 1
	}
	if cfg.Ways < 1 {
		cfg.Ways = 1
	}
	if cfg.LineSize < 1 {
		cfg.LineSize = 64
	}
	bits := uint(0)
	for 1<<bits < cfg.LineSize {
		bits++
	}
	c := &refCache{
		name:     cfg.Name,
		sets:     cfg.Sets,
		ways:     cfg.Ways,
		lineBits: bits,
	}
	c.lines = make([][]uint64, cfg.Sets)
	c.valid = make([][]bool, cfg.Sets)
	c.lru = make([][]uint8, cfg.Sets)
	for s := 0; s < cfg.Sets; s++ {
		c.lines[s] = make([]uint64, cfg.Ways)
		c.valid[s] = make([]bool, cfg.Ways)
		c.lru[s] = make([]uint8, cfg.Ways)
	}
	return c
}

// line returns the tag and set index for addr: the tag is the line
// number above the set index, truncated to 31 bits.
func (c *refCache) line(addr uint64) (tag uint64, set int) {
	line := addr >> c.lineBits
	return line / uint64(c.sets) % (1 << 31), int(line % uint64(c.sets))
}

// Access touches addr and returns whether it hit. On a miss the line is
// filled, evicting the LRU way if the set is full.
func (c *refCache) Access(addr uint64) bool {
	tag, set := c.line(addr)
	for w := 0; w < c.ways; w++ {
		if c.valid[set][w] && c.lines[set][w] == tag {
			c.touch(set, w)
			return true
		}
	}
	c.fill(set, tag)
	return false
}

// Contains reports whether addr's line is cached, without updating LRU or
// statistics (a probe, not an access).
func (c *refCache) Contains(addr uint64) bool {
	tag, set := c.line(addr)
	for w := 0; w < c.ways; w++ {
		if c.valid[set][w] && c.lines[set][w] == tag {
			return true
		}
	}
	return false
}

// Flush evicts addr's line if present and reports whether it was cached.
func (c *refCache) Flush(addr uint64) bool {
	tag, set := c.line(addr)
	for w := 0; w < c.ways; w++ {
		if c.valid[set][w] && c.lines[set][w] == tag {
			c.valid[set][w] = false
			return true
		}
	}
	return false
}

// Insert fills addr's line for the prefetch/refill path: Access without
// the hit result.
func (c *refCache) Insert(addr uint64) {
	tag, set := c.line(addr)
	for w := 0; w < c.ways; w++ {
		if c.valid[set][w] && c.lines[set][w] == tag {
			c.touch(set, w)
			return
		}
	}
	c.fill(set, tag)
}

// fill installs tag into set, evicting the LRU victim if needed.
func (c *refCache) fill(set int, tag uint64) {
	victim := -1
	for w := 0; w < c.ways; w++ {
		if !c.valid[set][w] {
			victim = w
			break
		}
	}
	if victim < 0 {
		// Evict the way with the highest recency rank.
		var worst uint8
		for w := 0; w < c.ways; w++ {
			if c.lru[set][w] >= worst {
				worst = c.lru[set][w]
				victim = w
			}
		}
	}
	c.lines[set][victim] = tag
	c.valid[set][victim] = true
	c.touch(set, victim)
}

// touch marks way as most recently used within set.
func (c *refCache) touch(set, way int) {
	old := c.lru[set][way]
	for w := 0; w < c.ways; w++ {
		if c.valid[set][w] && c.lru[set][w] < old {
			c.lru[set][w]++
		}
	}
	c.lru[set][way] = 0
}

// refTLB is a fully-associative translation lookaside buffer with LRU
// replacement over page numbers truncated to 31 bits.
type refTLB struct {
	entries  int
	pageBits uint
	pages    []uint64
	valid    []bool
	lru      []uint8
}

// newRefTLB builds a refTLB with the given entry count and page size.
func newRefTLB(entries, pageSize int) *refTLB {
	if entries < 1 {
		entries = 1
	}
	if pageSize < 1 {
		pageSize = 4096
	}
	bits := uint(0)
	for 1<<bits < pageSize {
		bits++
	}
	return &refTLB{
		entries:  entries,
		pageBits: bits,
		pages:    make([]uint64, entries),
		valid:    make([]bool, entries),
		lru:      make([]uint8, entries),
	}
}

// Access translates addr and returns whether the page entry was resident.
func (t *refTLB) Access(addr uint64) bool {
	page := (addr >> t.pageBits) % (1 << 31)
	for i := 0; i < t.entries; i++ {
		if t.valid[i] && t.pages[i] == page {
			t.touch(i)
			return true
		}
	}
	victim := -1
	for i := 0; i < t.entries; i++ {
		if !t.valid[i] {
			victim = i
			break
		}
	}
	if victim < 0 {
		var worst uint8
		for i := 0; i < t.entries; i++ {
			if t.lru[i] >= worst {
				worst = t.lru[i]
				victim = i
			}
		}
	}
	t.pages[victim] = page
	t.valid[victim] = true
	t.touch(victim)
	return false
}

// Flush invalidates every entry (context-switch analog).
func (t *refTLB) Flush() {
	for i := range t.valid {
		t.valid[i] = false
	}
}

func (t *refTLB) touch(entry int) {
	old := t.lru[entry]
	for i := 0; i < t.entries; i++ {
		if t.valid[i] && t.lru[i] < old {
			t.lru[i]++
		}
	}
	t.lru[entry] = 0
}

// refPredictor is the bimodal predictor the packed BranchPredictor is
// checked against: one 2-bit counter per byte, indexed modulo the table
// size.
type refPredictor struct {
	table []uint8
}

// newRefPredictor builds a refPredictor with the given table size (rounded
// up to at least 16 entries).
func newRefPredictor(entries int) *refPredictor {
	if entries < 16 {
		entries = 16
	}
	return &refPredictor{table: make([]uint8, entries)}
}

func (b *refPredictor) index(pc uint64) int {
	pc ^= pc >> 16
	pc *= 0x45d9f3b3335b369d
	pc ^= pc >> 32
	return int(pc % uint64(len(b.table)))
}

// Resolve records the actual outcome, updates the counter, and reports
// whether the prediction was wrong.
func (b *refPredictor) Resolve(pc uint64, taken bool) bool {
	idx := b.index(pc)
	predicted := b.table[idx] >= 2
	mispredicted := predicted != taken
	if taken {
		if b.table[idx] < 3 {
			b.table[idx]++
		}
	} else {
		if b.table[idx] > 0 {
			b.table[idx]--
		}
	}
	return mispredicted
}

// TestPredictorMatchesReference drives seeded random branch streams
// through the packed predictor and the byte-per-counter reference, at
// power-of-two and other table sizes (below the 16-entry floor, and not a
// multiple of four), and requires every prediction, and the final counters
// entry by entry, to agree. Each PC has its own bias toward taken, so
// counters both saturate and flip.
func TestPredictorMatchesReference(t *testing.T) {
	for _, entries := range []int{0, 16, 17, 100, 1000, 4096} {
		got, want := NewBranchPredictor(entries), newRefPredictor(entries)
		r := rng.New(uint64(entries) + 1)
		pcs := make([]uint64, len(want.table))
		bias := make([]float64, len(pcs))
		for i := range pcs {
			pcs[i] = 0x400000 + 4*uint64(r.Intn(1<<20))
			bias[i] = r.Float64()
		}
		for i := 0; i < 200000; i++ {
			k := r.Intn(len(pcs))
			pc, taken := pcs[k], r.Bernoulli(bias[k])
			if i%64 == 0 {
				pc = r.Uint64()
			}
			if g, w := got.Resolve(pc, taken), want.Resolve(pc, taken); g != w {
				t.Fatalf("%d entries op %d: Resolve(%#x, %v) = %v, reference %v", entries, i, pc, taken, g, w)
			}
		}
		for i, w := range want.table {
			if g := got.counters[i/4] >> (2 * (i % 4)) & 3; g != w {
				t.Errorf("%d entries: counter %d is %d, reference %d", entries, i, g, w)
			}
		}
		if pad := len(want.table) % 4; pad != 0 && got.counters[len(got.counters)-1]>>(2*pad) != 0 {
			t.Errorf("%d entries: the last byte's unused counters are set", entries)
		}
	}
}

// TestCacheMatchesReference drives seeded random Access, Contains, Flush
// and Insert sequences through the flat cache and the reference model and
// requires every result, and the final contents way by way, to agree.
func TestCacheMatchesReference(t *testing.T) {
	for _, geo := range []struct{ sets, ways int }{{1, 1}, {1, 2}, {3, 4}, {4, 4}, {64, 8}, {1024, 8}} {
		cfg := CacheConfig{Sets: geo.sets, Ways: geo.ways, LineSize: 64}
		got, want := NewCache(cfg), newRefCache(cfg)
		r := rng.New(uint64(geo.sets*31 + geo.ways))
		// Draw from twice the cache's capacity in lines, so sets fill,
		// overflow and hit; every 64th address is arbitrary.
		span := uint64(2*geo.sets*geo.ways) * 64
		for i := 0; i < 50000; i++ {
			addr := r.Uint64()
			if i%64 != 0 {
				addr %= span
			}
			switch op := r.Intn(8); {
			case op < 4:
				if g, w := got.Access(addr), want.Access(addr); g != w {
					t.Fatalf("%v op %d: Access(%#x) = %v, reference %v", cfg, i, addr, g, w)
				}
			case op < 6:
				if g, w := got.Contains(addr), want.Contains(addr); g != w {
					t.Fatalf("%v op %d: Contains(%#x) = %v, reference %v", cfg, i, addr, g, w)
				}
			case op < 7:
				if g, w := got.Flush(addr), want.Flush(addr); g != w {
					t.Fatalf("%v op %d: Flush(%#x) = %v, reference %v", cfg, i, addr, g, w)
				}
			default:
				got.Access(addr)
				want.Insert(addr)
			}
		}
		cacheAgrees(t, got, want)
	}
}

// way returns way w of set s: its tag plus one, or free.
func (c *Cache) way(s, w int) uint32 {
	return uint32(c.lines[s*c.words+w/2] >> (32 * (w % 2)))
}

// cacheAgrees fails t unless got holds the reference's tag, plus one, in
// every way, and free where the reference's way is invalid.
func cacheAgrees(t *testing.T, got *Cache, want *refCache) {
	t.Helper()
	for s := 0; s < want.sets; s++ {
		for w := 0; w < want.ways; w++ {
			ref := uint32(free)
			if want.valid[s][w] {
				ref = uint32(want.lines[s][w]) + 1
			}
			if l := got.way(s, w); l != ref {
				t.Errorf("%d sets x %d ways: set %d way %d holds %#x, reference %#x", want.sets, want.ways, s, w, l, ref)
			}
		}
	}
}

// TestCacheMemoMatchesReference drives the sequences where a remembered
// last line could go stale through the cache and the reference model,
// which remembers nothing, and requires every result and the final ways to
// agree: a repeat after the line's Flush, after a set neighbour's Flush,
// after eviction by the set's other lines (with an odd way count, so a pad
// lane is present), and the all-ones line of 1-byte lines on a fresh
// cache, which a memo storing the line plus one would mistake for its
// empty marker.
func TestCacheMemoMatchesReference(t *testing.T) {
	type step struct {
		flush bool
		addr  uint64
	}
	const ones = ^uint64(0)
	for _, tc := range []struct {
		name  string
		cfg   CacheConfig
		steps []step
	}{
		{"flush-then-access", CacheConfig{Sets: 4, Ways: 2, LineSize: 64},
			[]step{{false, 0x1000}, {false, 0x1010}, {true, 0x1020}, {false, 0x1000}, {false, 0x1000}}},
		{"neighbour-flush", CacheConfig{Sets: 4, Ways: 2, LineSize: 64},
			[]step{{false, 0x1000}, {false, 0x1100}, {false, 0x1000}, {true, 0x1100}, {false, 0x1000}, {false, 0x1100}}},
		{"evicted-by-set", CacheConfig{Sets: 1, Ways: 3, LineSize: 64},
			[]step{{false, 0}, {false, 64}, {false, 128}, {false, 128}, {false, 192}, {false, 128}, {false, 0}, {false, 192}, {false, 192}}},
		{"all-ones-line", CacheConfig{Sets: 1, Ways: 1, LineSize: 1},
			[]step{{false, ones}, {false, ones}, {false, 0}, {false, ones}, {true, ones}, {false, ones}}},
		{"all-ones-line-sets", CacheConfig{Sets: 16, Ways: 2, LineSize: 1},
			[]step{{false, ones}, {false, ones - 16}, {false, ones}}},
	} {
		got, want := NewCache(tc.cfg), newRefCache(tc.cfg)
		for i, s := range tc.steps {
			if s.flush {
				if g, w := got.Flush(s.addr), want.Flush(s.addr); g != w {
					t.Fatalf("%s step %d: Flush(%#x) = %v, reference %v", tc.name, i, s.addr, g, w)
				}
				continue
			}
			if g, w := got.Access(s.addr), want.Access(s.addr); g != w {
				t.Fatalf("%s step %d: Access(%#x) = %v, reference %v", tc.name, i, s.addr, g, w)
			}
		}
		cacheAgrees(t, got, want)
	}
}

// TestCoreResetForgetsLastLines checks that Core.Reset empties the
// remembered last line of each cache with its ways: the lines the core
// touched last miss afterwards, as they do in an empty reference cache.
func TestCoreResetForgetsLastLines(t *testing.T) {
	cfg := DefaultCoreConfig()
	c := NewCore(0, cfg, nil)
	ctx := NewScratchContext(0x2000_0000)
	load := Decode(&isa.Variant{Mnemonic: "MOV", Class: isa.ClassLoad, Uops: 1, MemReads: 1})
	for i := 0; i < 2; i++ {
		if err := c.ExecuteOp(load, ctx); err != nil {
			t.Fatal(err)
		}
	}
	c.Reset()
	for _, tc := range []struct {
		cache *Cache
		sets  int
		ways  int
		addr  uint64
	}{
		{c.L1I, cfg.L1ISets, cfg.L1IWays, ctx.PC},
		{c.L1D, cfg.L1DSets, cfg.L1DWays, ctx.Base},
		{c.L2, cfg.L2Sets, cfg.L2Ways, ctx.Base},
	} {
		want := newRefCache(CacheConfig{Sets: tc.sets, Ways: tc.ways, LineSize: cfg.LineSize})
		cacheAgrees(t, tc.cache, want)
		if g, w := tc.cache.Access(tc.addr), want.Access(tc.addr); g != w {
			t.Errorf("%s after Reset: Access(%#x) = %v, reference %v", tc.cache.Name(), tc.addr, g, w)
		}
	}
}

// TestSharedL2MemoMatchesReference runs loads and flushes on two cores
// sharing a small L2, so each core's remembered L2 line is evicted or
// flushed by the other, and mirrors every L2 access the counters reveal
// (an L1I or L1D miss, a flush) into the reference model: each op's L2
// misses and the final ways must agree with it.
func TestSharedL2MemoMatchesReference(t *testing.T) {
	cfg := DefaultCoreConfig()
	cfg.L1DSets, cfg.L1DWays, cfg.L1ISets, cfg.L1IWays = 1, 1, 1, 1
	cfg.L2Sets, cfg.L2Ways = 2, 3
	cfg.InterruptRate = 0
	l2cfg := CacheConfig{Name: "L2", Sets: cfg.L2Sets, Ways: cfg.L2Ways, LineSize: cfg.LineSize}
	l2, ref := NewCache(l2cfg), newRefCache(l2cfg)
	cores := []*Core{NewCoreWithL2(0, cfg, nil, l2), NewCoreWithL2(1, cfg, nil, l2)}
	ctxs := []*ExecContext{NewScratchContext(0), NewScratchContext(0)}
	ops := []Op{
		Decode(&isa.Variant{Mnemonic: "MOV", Class: isa.ClassLoad, Uops: 1, MemReads: 1}),
		Decode(&isa.Variant{Mnemonic: "CLFLUSH", Class: isa.ClassFlush, Uops: 1}),
	}
	r := rng.New(11)
	for i := 0; i < 20000; i++ {
		n := r.Intn(2)
		c, ctx, op := cores[n], ctxs[n], ops[r.Intn(2)]
		ctx.Base = uint64(r.Intn(16)) * 64
		if r.Intn(64) == 0 {
			ctx.PC = 0x400000 // refetch lines the other core may have evicted
		}
		pc, before := ctx.PC+4, c.Counters()
		if err := c.ExecuteOp(op, ctx); err != nil {
			t.Fatal(err)
		}
		d := c.Counters().Sub(before)
		var misses uint64
		if d[SigL1IMisses] > 0 && !ref.Access(pc) {
			misses++
		}
		if d[SigL1DMisses] > 0 && !ref.Access(ctx.Base) {
			misses++
		}
		if op.Class() == isa.ClassFlush {
			ref.Flush(ctx.Base)
		}
		if d[SigL2Misses] != misses {
			t.Fatalf("op %d on core %d: %d L2 misses, reference %d", i, n, d[SigL2Misses], misses)
		}
	}
	cacheAgrees(t, l2, ref)
}

// TestTLBMatchesReference does the same for seeded random TLB Access and
// Flush sequences.
func TestTLBMatchesReference(t *testing.T) {
	for _, entries := range []int{1, 2, 5, 64} {
		got, want := NewTLB(entries, 4096), newRefTLB(entries, 4096)
		r := rng.New(uint64(entries))
		span := uint64(2*entries) << 12
		for i := 0; i < 50000; i++ {
			if r.Intn(500) == 0 {
				got.Flush()
				want.Flush()
				continue
			}
			addr := r.Uint64()
			if i%64 != 0 {
				addr %= span
			}
			if g, w := got.Access(addr), want.Access(addr); g != w {
				t.Fatalf("%d entries op %d: Access(%#x) = %v, reference %v", entries, i, addr, g, w)
			}
		}
		tlbAgrees(t, got, want)
	}
}

// tlbAgrees fails t unless got holds the reference's page, plus one, in
// every entry, and free where the reference's entry is invalid.
func tlbAgrees(t *testing.T, got *TLB, want *refTLB) {
	t.Helper()
	for i := 0; i < want.entries; i++ {
		ref := uint32(free)
		if want.valid[i] {
			ref = uint32(want.pages[i]) + 1
		}
		if p := got.pages[i]; p != ref {
			t.Errorf("%d entries: entry %d holds %#x, reference %#x", want.entries, i, p, ref)
		}
	}
}

// edgeVariants are out-of-range variants the specifications never produce:
// negative counts, classes outside the enumeration, and a page fault on an
// I/O instruction.
var edgeVariants = []isa.Variant{
	{Mnemonic: "PUSH", Class: isa.ClassBranch, Uops: -4, MemReads: -1, MemWrites: 1},
	{Mnemonic: "POP", Class: isa.ClassInvalid + 5, MemReads: 3},
	{Mnemonic: "ODD", Class: -2, Uops: 0},
	{Mnemonic: "IODD", Class: isa.ClassIO, PageFaults: true},
}

// newRefTwin builds a noisy core and workload context from seed; two calls
// with the same arguments build identical twins.
func newRefTwin(seed uint64, interruptRate float64) (*Core, *ExecContext) {
	cfg := DefaultCoreConfig()
	cfg.InterruptRate = interruptRate
	r := rng.New(seed)
	return NewCore(0, cfg, r.Split("noise")), NewWorkloadContext(0x10000, 1<<20, r.Split("ctx"))
}

// matchReference retires v through ExecuteOp(Decode(v)) on co and through
// refExecute on cr, fails t unless the fault kinds, error messages,
// counters and contexts agree afterwards, and reports whether v faulted.
func matchReference(t testing.TB, co *Core, ctxO *ExecContext, cr *Core, ctxR *ExecContext, v *isa.Variant) bool {
	t.Helper()
	errO := co.ExecuteOp(Decode(v), ctxO)
	errR := refExecute(cr, v, ctxR)
	if (errO == nil) != (errR == nil) || errO != nil && errO.Error() != errR.Error() {
		t.Fatalf("%s: ExecuteOp error %v, reference %v", v.Key(), errO, errR)
	}
	var illegal *ErrIllegalInstruction
	if errO != nil && !errors.As(errO, &illegal) {
		t.Fatalf("%s: err = %v, want ErrIllegalInstruction", v.Key(), errO)
	}
	if co.ctrs != cr.ctrs {
		t.Fatalf("%s: counters diverge", v.Key())
	}
	if !reflect.DeepEqual(ctxO, ctxR) {
		t.Fatalf("%s: contexts diverge", v.Key())
	}
	return errO != nil
}

// refExecute is the variant-based execution path that Decode and ExecuteOp
// replaced, kept as the reference ExecuteOp is checked against: it reads
// the variant's fields and compares its mnemonic on every instruction, and
// divides the interrupt rate per draw.
func refExecute(c *Core, v *isa.Variant, ctx *ExecContext) error {
	if v.Reserved || v.PageFaults || v.Privileged || v.Class == isa.ClassIO || v.Class == isa.ClassInvalid {
		kind := isa.FaultUD
		switch {
		case v.PageFaults:
			kind = isa.FaultPF
			c.ctrs[SigPageFaults]++
		case v.Privileged, v.Class == isa.ClassIO:
			kind = isa.FaultGP
		}
		var class isa.Class
		if v.Class > 0 && v.Class <= isa.ClassInvalid {
			class = v.Class
		}
		return &ErrIllegalInstruction{Class: class, Fault: kind}
	}

	ctx.PC += 4
	c.ctrs[SigInstructions]++
	uops := v.Uops
	if uops < 1 {
		uops = 1
	}
	c.ctrs[SigUopsRetired] += uint64(uops)
	cycles := uint64(1)

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

	for i := 0; i < v.MemReads; i++ {
		cycles += c.dataAccess(ctx.dataAddr(), false)
	}
	for i := 0; i < v.MemWrites; i++ {
		cycles += c.dataAccess(ctx.dataAddr(), true)
	}

	switch v.Class {
	case isa.ClassALU, isa.ClassNop:
	case isa.ClassMul:
		c.ctrs[SigMulOps]++
		cycles += 2
	case isa.ClassDiv:
		c.ctrs[SigDivOps]++
		cycles += 20
	case isa.ClassBit:
		c.ctrs[SigBitOps]++
	case isa.ClassLoad, isa.ClassStore, isa.ClassLoadStore:
	case isa.ClassBranch:
		taken := ctx.branchTaken()
		if c.BP.Resolve(ctx.PC, taken) {
			c.ctrs[SigBranchMispred]++
			cycles += 14
		}
		c.ctrs[SigBranchesRet]++
		if v.MemWrites > 0 || v.MemReads > 0 {
			c.ctrs[SigStackOps]++
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

	if v.Mnemonic == "PUSH" || v.Mnemonic == "POP" {
		c.ctrs[SigStackOps]++
	}

	c.ctrs[SigCycles] += cycles

	if c.noise != nil && c.interruptRate > 0 {
		if c.noise.Float64() < c.interruptRate/1e6 {
			c.Interrupt()
		}
	}
	return nil
}

// FuzzCacheMatchesReference drives an arbitrary cache geometry, TLB size
// and operation sequence through the flat Cache and TLB and the reference
// model, failing on any differing result or final content. Each operation
// is 9 bytes: an op byte and a little-endian address. The op byte's low
// bits pick Access, Contains or Flush on the cache, or Access or Flush on
// the TLB; its top two bits pick the address: the raw word, the word
// folded into twice the structure's capacity (so sets fill, overflow and
// hit), or folded and then given the word's bits from 43 up (so addresses
// that differ only above the 31-bit tags meet).
func FuzzCacheMatchesReference(f *testing.F) {
	step := func(op byte, addr uint64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{op}, addr)
	}
	f.Add(uint16(64), uint8(8), uint8(6), uint8(64), slices.Concat(
		step(0x40, 0x1000), step(0x80|2, 5<<43|0x1000), step(0xc0|3, 0x1000), step(4, 0x1000), step(0x80|4, 7<<43|0x1000), step(7, 0)))
	f.Add(uint16(3), uint8(4), uint8(6), uint8(5), slices.Concat(
		step(0x40, 0xff040), step(0x80, 0xff040), step(0x40|2, 0xff040), step(0x40|5, 0x3000)))
	f.Add(uint16(1024), uint8(8), uint8(1), uint8(1), slices.Concat(
		step(0xc0, 1<<63|1<<47), step(0, 1<<47), step(2, 1<<63), step(6, 1<<43), step(6, 0)))
	f.Add(uint16(16), uint8(3), uint8(0), uint8(2), slices.Concat(
		step(0, 1<<64-1), step(0, 1<<64-1), step(3, 1<<64-1), step(0, 1<<64-1), step(0x40, 7), step(0x40, 55)))
	// One 5-way set, so its third word has a pad lane: fill it and miss
	// once (evicting the last way, not the pad lane), flush two middle
	// ways (way 1, a high lane, and way 2, a low lane) and miss twice, so
	// the misses must fill way 1 and then way 2, the first free way each
	// time, and a third miss the last way again.
	f.Add(uint16(1), uint8(5), uint8(6), uint8(4), slices.Concat(
		step(0, 0), step(0, 64), step(0, 128), step(0, 192), step(0, 256), step(0, 320),
		step(3, 64), step(3, 128), step(0, 384), step(2, 384), step(0, 448), step(2, 448),
		step(0, 128), step(2, 320), step(2, 192)))
	f.Fuzz(func(t *testing.T, sets uint16, ways, lineBits, entries uint8, prog []byte) {
		cfg := CacheConfig{Sets: int(sets % 2049), Ways: int(ways % 17), LineSize: 1 << (lineBits % 13)}
		got, want := NewCache(cfg), newRefCache(cfg)
		tlb, refTLB := NewTLB(int(entries%130), 4096), newRefTLB(int(entries%130), 4096)
		cacheSpan := uint64(2*want.sets*want.ways) << want.lineBits
		tlbSpan := uint64(2*refTLB.entries) << 12
		for ; len(prog) >= 9; prog = prog[9:] {
			op, raw := prog[0], binary.LittleEndian.Uint64(prog[1:9])
			addr := func(span uint64) uint64 {
				switch op >> 6 {
				case 0:
					return raw
				case 1:
					return raw % span
				}
				return raw%span | raw>>43<<43
			}
			switch op & 7 {
			case 0, 1:
				a := addr(cacheSpan)
				if g, w := got.Access(a), want.Access(a); g != w {
					t.Fatalf("%+v: Access(%#x) = %v, reference %v", cfg, a, g, w)
				}
			case 2:
				a := addr(cacheSpan)
				if g, w := got.Contains(a), want.Contains(a); g != w {
					t.Fatalf("%+v: Contains(%#x) = %v, reference %v", cfg, a, g, w)
				}
			case 3:
				a := addr(cacheSpan)
				if g, w := got.Flush(a), want.Flush(a); g != w {
					t.Fatalf("%+v: Flush(%#x) = %v, reference %v", cfg, a, g, w)
				}
			case 4, 5, 6:
				a := addr(tlbSpan)
				if g, w := tlb.Access(a), refTLB.Access(a); g != w {
					t.Fatalf("%d entries: TLB Access(%#x) = %v, reference %v", refTLB.entries, a, g, w)
				}
			default:
				tlb.Flush()
				refTLB.Flush()
			}
		}
		cacheAgrees(t, got, want)
		tlbAgrees(t, tlb, refTLB)
	})
}
