package microarch

import (
	"testing"
	"testing/quick"

	"github.com/repro/aegis/internal/rng"
)

func TestCacheHitAfterFill(t *testing.T) {
	c := NewCache(CacheConfig{Sets: 4, Ways: 2, LineSize: 64})
	if c.Access(0x1000) {
		t.Error("first access hit an empty cache")
	}
	if !c.Access(0x1000) {
		t.Error("second access to same address missed")
	}
	if !c.Access(0x1010) {
		t.Error("access within same line missed")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 1 set, 2 ways: the third distinct line replaces the last way, B.
	// B is also the least recently used here; TestReplacementPolicy shows
	// that recency plays no part.
	c := NewCache(CacheConfig{Sets: 1, Ways: 2, LineSize: 64})
	c.Access(0x0)  // fill A into way 0
	c.Access(0x40) // fill B into way 1
	c.Access(0x0)  // hit A
	c.Access(0x80) // fill C over the last way, evicting B
	if !c.Contains(0x0) {
		t.Error("A was evicted but is most-recently used")
	}
	if c.Contains(0x40) {
		t.Error("B survived but was LRU")
	}
	if !c.Contains(0x80) {
		t.Error("C missing after fill")
	}
}

// TestReplacementPolicy pins the replacement policy of caches and the TLB:
// a miss fills the first free way, a full set replaces its last way, and a
// hit does not protect a line. Making them LRU must change this test.
func TestReplacementPolicy(t *testing.T) {
	const a, b, c, d, e = 0x0, 0x40, 0x80, 0xc0, 0x100
	cache := NewCache(CacheConfig{Sets: 1, Ways: 3, LineSize: 64})
	for _, addr := range []uint64{a, b, c, c} {
		cache.Access(addr) // a, b, c fill ways 0, 1, 2; then c hits
	}
	cache.Access(d) // full: d replaces the last way, c, though c is the most recent
	if cache.Contains(c) || !cache.Contains(a) || !cache.Contains(b) || !cache.Contains(d) {
		t.Fatal("a full set did not replace its last way")
	}
	cache.Flush(a)  // frees way 0
	cache.Access(c) // fills way 0, the first free way; d in the last way stays
	cache.Access(e) // full: replaces d
	if !cache.Contains(c) || cache.Contains(d) || !cache.Contains(e) {
		t.Error("a miss did not fill the first free way")
	}

	tlb := NewTLB(3, 4096)
	for _, addr := range []uint64{0x0000, 0x1000, 0x2000, 0x2000} {
		tlb.Access(addr)
	}
	tlb.Access(0x3000) // replaces page 2 in the last entry
	if !tlb.Access(0x0000) || tlb.Access(0x2000) {
		t.Error("a full TLB did not replace its last entry")
	}
}

func TestCacheFlush(t *testing.T) {
	c := NewCache(CacheConfig{Sets: 8, Ways: 2, LineSize: 64})
	c.Access(0x2000)
	if !c.Flush(0x2000) {
		t.Error("flush of resident line returned false")
	}
	if c.Contains(0x2000) {
		t.Error("line still resident after flush")
	}
	if c.Flush(0x2000) {
		t.Error("flush of absent line returned true")
	}
}

func TestCacheWorkingSetProperty(t *testing.T) {
	// Property: a working set no larger than one set's capacity never
	// misses after the first pass.
	if err := quick.Check(func(seed uint64) bool {
		c := NewCache(CacheConfig{Sets: 16, Ways: 4, LineSize: 64})
		r := rng.New(seed)
		// 4 lines all in set 0 (stride = 16*64).
		addrs := make([]uint64, 4)
		for i := range addrs {
			addrs[i] = uint64(i) * 16 * 64
		}
		for _, a := range addrs {
			c.Access(a)
		}
		for i := 0; i < 100; i++ {
			if !c.Access(addrs[r.Intn(len(addrs))]) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestCacheContainsInvariant(t *testing.T) {
	// Property: immediately after Access(a), Contains(a) is true.
	if err := quick.Check(func(addrs []uint64) bool {
		c := NewCache(CacheConfig{Sets: 8, Ways: 2, LineSize: 64})
		for _, a := range addrs {
			c.Access(a)
			if !c.Contains(a) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTLBHitMiss(t *testing.T) {
	tlb := NewTLB(4, 4096)
	if tlb.Access(0x1000) {
		t.Error("empty TLB hit")
	}
	if !tlb.Access(0x1fff) {
		t.Error("same page missed")
	}
	if tlb.Access(0x2000) {
		t.Error("new page hit")
	}
}

func TestTLBLRUReplacement(t *testing.T) {
	// The new page replaces the last entry, which holds page 1; the hit on
	// page 0 plays no part (see TestReplacementPolicy).
	tlb := NewTLB(2, 4096)
	tlb.Access(0x0000) // page 0 into entry 0
	tlb.Access(0x1000) // page 1 into entry 1
	tlb.Access(0x0000) // hit page 0
	tlb.Access(0x2000) // page 2 replaces the last entry, evicting page 1
	if !tlb.Access(0x0000) {
		t.Error("page 0 evicted despite recent use")
	}
	if tlb.Access(0x1000) {
		t.Error("page 1 survived but was LRU")
	}
}

func TestTLBFlush(t *testing.T) {
	tlb := NewTLB(8, 4096)
	tlb.Access(0x5000)
	tlb.Flush()
	if tlb.Access(0x5000) {
		t.Error("entry survived flush")
	}
}

func TestBranchPredictorLearnsBias(t *testing.T) {
	bp := NewBranchPredictor(64)
	pc := uint64(0x400100)
	// Always-taken branch: after warmup, mispredict rate must vanish.
	for i := 0; i < 10; i++ {
		bp.Resolve(pc, true)
	}
	mispredicts := 0
	for i := 0; i < 100; i++ {
		if bp.Resolve(pc, true) {
			mispredicts++
		}
	}
	if mispredicts != 0 {
		t.Errorf("biased branch mispredicted %d/100 after warmup", mispredicts)
	}
}

func TestBranchPredictorAlternating(t *testing.T) {
	bp := NewBranchPredictor(64)
	pc := uint64(0x400200)
	mispredicts := 0
	taken := false
	for i := 0; i < 100; i++ {
		taken = !taken
		if bp.Resolve(pc, taken) {
			mispredicts++
		}
	}
	// A bimodal predictor does badly on alternating patterns.
	if mispredicts < 30 {
		t.Errorf("alternating branch mispredicted only %d/100", mispredicts)
	}
}

func TestZeroConfigNormalised(t *testing.T) {
	c := NewCache(CacheConfig{})
	if c.Access(0) {
		t.Error("zero-config cache hit on first access")
	}
	if !c.Access(0) {
		t.Error("zero-config cache missed on second access")
	}
	tlb := NewTLB(0, 0)
	tlb.Access(0x1000)
}

// TestTagAliasing pins the 31-bit tag width on the default geometry: no
// two distinct lines (pages) below 2^43 share a way in L1D, L1I, L2 or the
// TLB, while addresses equal in their low 43 bits share an L1 line and a
// TLB page (L2's 1024 sets stretch its reach to 47 bits). Tags truncate
// bits, so two addresses share a line exactly when they agree on every bit
// the tag, set index and offset cover; flipping one bit at a time checks
// every such bit.
func TestTagAliasing(t *testing.T) {
	cfg := DefaultCoreConfig()
	r := rng.New(43)
	for i := 0; i < 200; i++ {
		addr := r.Uint64() % (1 << 43)
		core := NewCore(0, cfg, nil)
		for _, c := range []*Cache{core.L1D, core.L1I, core.L2} {
			c.Access(addr)
			for bit := 6; bit < 43; bit++ {
				if other := addr ^ 1<<bit; c.Contains(other) {
					t.Fatalf("%s: %#x and %#x share a line", c.Name(), addr, other)
				}
			}
		}
		for bit := 12; bit < 43; bit++ {
			tlb := NewTLB(cfg.TLBEntries, 4096)
			tlb.Access(addr)
			if other := addr ^ 1<<bit; tlb.Access(other) {
				t.Fatalf("TLB: %#x and %#x share a page", addr, other)
			}
		}

		high := addr | r.Uint64()>>43<<43
		for _, c := range []*Cache{core.L1D, core.L1I} {
			if !c.Contains(high) {
				t.Fatalf("%s: %#x and %#x agree below bit 43 but miss", c.Name(), addr, high)
			}
		}
		if l2 := addr | r.Uint64()>>47<<47; !core.L2.Contains(l2) {
			t.Fatalf("L2: %#x and %#x agree below bit 47 but miss", addr, l2)
		}
		tlb := NewTLB(cfg.TLBEntries, 4096)
		tlb.Access(addr)
		if !tlb.Access(high) {
			t.Fatalf("TLB: %#x and %#x agree below bit 43 but miss", addr, high)
		}
	}
}
