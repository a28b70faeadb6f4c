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
	// 1 set, 2 ways: the third distinct line evicts the least recent.
	c := NewCache(CacheConfig{Sets: 1, Ways: 2, LineSize: 64})
	c.Access(0x0)  // fill A
	c.Access(0x40) // fill B
	c.Access(0x0)  // touch A; B is now LRU
	c.Access(0x80) // fill C, evicting B
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
	tlb := NewTLB(2, 4096)
	tlb.Access(0x0000) // page 0
	tlb.Access(0x1000) // page 1
	tlb.Access(0x0000) // touch page 0
	tlb.Access(0x2000) // page 2 evicts page 1
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
