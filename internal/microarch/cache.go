// Package microarch simulates the micro-architectural state of one CPU core:
// set-associative caches with LRU replacement, a TLB, a branch predictor and
// an execution engine that retires instruction variants from the isa package
// while accounting every raw micro-event (dispatches, refills, mispredicts,
// ...). The hpc package derives its performance-counter events from these
// raw counts, so instruction gadgets perturb HPC events through the same
// mechanistic paths as on real hardware: a CLFLUSH analog actually evicts
// the line a subsequent load will miss on.
package microarch

// Cache is a set-associative cache with true-LRU replacement.
type Cache struct {
	name     string
	sets     int
	ways     int
	lineBits uint
	// lines[set][way] holds the cached line tag; lru[set][way] holds the
	// recency rank (0 = most recent).
	lines [][]uint64
	valid [][]bool
	lru   [][]uint8
}

// CacheConfig sizes a cache.
type CacheConfig struct {
	Name     string
	Sets     int
	Ways     int
	LineSize int // bytes; must be a power of two
}

// NewCache builds a cache. Invalid configurations are normalised to small
// positive values so a zero-value config still yields a working cache.
func NewCache(cfg CacheConfig) *Cache {
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
	c := &Cache{
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

// line returns the line address (tag) and set index for addr.
func (c *Cache) line(addr uint64) (tag uint64, set int) {
	tag = addr >> c.lineBits
	set = int(tag % uint64(c.sets))
	return tag, set
}

// Access touches addr and returns whether it hit. On a miss the line is
// filled, evicting the LRU way if the set is full.
func (c *Cache) Access(addr uint64) bool {
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
func (c *Cache) Contains(addr uint64) bool {
	tag, set := c.line(addr)
	for w := 0; w < c.ways; w++ {
		if c.valid[set][w] && c.lines[set][w] == tag {
			return true
		}
	}
	return false
}

// Flush evicts addr's line if present and reports whether it was cached.
func (c *Cache) Flush(addr uint64) bool {
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
func (c *Cache) Insert(addr uint64) {
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
func (c *Cache) fill(set int, tag uint64) {
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
func (c *Cache) touch(set, way int) {
	old := c.lru[set][way]
	for w := 0; w < c.ways; w++ {
		if c.valid[set][w] && c.lru[set][w] < old {
			c.lru[set][w]++
		}
	}
	c.lru[set][way] = 0
}

// Name returns the cache's configured name.
func (c *Cache) Name() string { return c.name }

// TLB is a fully-associative translation lookaside buffer with LRU
// replacement over page numbers.
type TLB struct {
	entries  int
	pageBits uint
	pages    []uint64
	valid    []bool
	lru      []uint8
}

// NewTLB builds a TLB with the given entry count and page size.
func NewTLB(entries, pageSize int) *TLB {
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
	return &TLB{
		entries:  entries,
		pageBits: bits,
		pages:    make([]uint64, entries),
		valid:    make([]bool, entries),
		lru:      make([]uint8, entries),
	}
}

// Access translates addr and returns whether the page entry was resident.
func (t *TLB) Access(addr uint64) bool {
	page := addr >> t.pageBits
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
func (t *TLB) Flush() {
	for i := range t.valid {
		t.valid[i] = false
	}
}

func (t *TLB) touch(entry int) {
	old := t.lru[entry]
	for i := 0; i < t.entries; i++ {
		if t.valid[i] && t.lru[i] < old {
			t.lru[i]++
		}
	}
	t.lru[entry] = 0
}
