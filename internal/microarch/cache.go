// Package microarch simulates the micro-architectural state of one CPU core:
// set-associative caches, a TLB, a branch predictor and an execution engine
// that retires instruction variants from the isa package while accounting
// every raw micro-event (dispatches, refills, mispredicts, ...). The hpc
// package derives its performance-counter events from these raw counts, so
// instruction gadgets perturb HPC events through the same mechanistic paths
// as on real hardware: a CLFLUSH analog actually evicts the line a
// subsequent load will miss on.
//
// Caches and the TLB share one replacement policy: a miss fills the first
// free way (entry), and a full set evicts its last way. A hit does not
// protect a line from eviction; the policy is not LRU.
//
// Because a hit changes nothing, a cache remembers the line of its last
// access and answers a repeat of it as a hit without a lookup: only
// another access, a flush or a reset can evict that line, and each of
// them replaces or clears the memory. A set's ways are stored two to a
// word and matched a word at a time; see find. An access matches the tag
// and finds a miss's victim in one branch-free pass over the set; see
// access.
//
// Tags are 31 bits wide. A cache way holds its line's tag, the line number
// above the set index, truncated to 31 bits; a TLB entry holds its page
// number truncated to 31 bits. Addresses that agree in the bits a tag,
// set index and line offset cover share a line (page). With the default
// geometry (64-byte lines, 64 L1 sets, 4 KiB pages) L1 and the TLB cover
// 43 bits, exactly the physical address space of the EPYC 7002, and L2's
// 1024 sets cover 47. Every address the simulator generates is below 2^43
// (VM bases at (id+1)<<32, the fuzzer's scratch page at 0x1000_0000,
// calibration at 0x2000_0000, code from 0x400000), so the truncation never
// merges two of them.
package microarch

// Ways and TLB entries store a tag plus one, so free marks an empty one.
const (
	free    = 0
	tagBits = 31
	tagMask = 1<<tagBits - 1
)

// A cache stores its ways two to a uint64 word: way 2i in the low lane of
// word i, way 2i+1 in the high lane. A set with an odd way count pads its
// last word's high lane with pad, which equals neither a tag plus one
// (at most 1<<tagBits) nor free, so no lookup ever finds it.
const (
	lanes    = 1<<32 | 1 // one in each lane
	laneHigh = lanes << 31
	pad      = 1<<32 - 1
)

// Cache is a set-associative cache: a miss fills the first free way of its
// set, else replaces the set's last way.
type Cache struct {
	name     string
	sets     uint64
	setMask  uint64 // sets-1 when sets is a power of two, else 0
	setBits  uint   // log2(sets) when sets is a power of two
	ways     int
	words    int // uint64 words per set, ways/2 rounded up
	lineBits uint
	// lines holds each way's tag plus one, free when empty, two ways to a
	// word, set-major: way w of set s is lane w%2 of lines[s*words+w/2].
	lines []uint64
	// last is the line of the most recent Access while hasLast holds. The
	// line is then cached: only another Access, a Flush or a reset can
	// evict it, and a hit changes nothing, so repeating the line hits.
	last    uint64
	hasLast bool
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
	words := (cfg.Ways + 1) / 2
	c := &Cache{
		name:     cfg.Name,
		sets:     uint64(cfg.Sets),
		ways:     cfg.Ways,
		words:    words,
		lineBits: log2Ceil(cfg.LineSize),
		lines:    make([]uint64, cfg.Sets*words),
	}
	if c.sets&(c.sets-1) == 0 {
		c.setMask = c.sets - 1
		c.setBits = log2Ceil(cfg.Sets)
	}
	c.padLanes() // make already emptied every way
	return c
}

// reset empties every way, keeping the pad lanes, and forgets the last
// line.
func (c *Cache) reset() {
	clear(c.lines)
	c.padLanes()
	c.last, c.hasLast = 0, false
}

// padLanes writes pad into each set's unused high lane when the way count
// is odd.
func (c *Cache) padLanes() {
	if c.ways%2 != 0 {
		for i := c.words - 1; i < len(c.lines); i += c.words {
			c.lines[i] = pad << 32
		}
	}
}

// log2Ceil returns the smallest b with 1<<b >= n.
func log2Ceil(n int) uint {
	b := uint(0)
	for 1<<b < n {
		b++
	}
	return b
}

// set returns line's stored tag value and the words of its set.
func (c *Cache) set(line uint64) (tag uint32, words []uint64) {
	// A mask and a shift instead of a division on the usual sizes.
	s, above := line&c.setMask, line>>c.setBits
	if c.setMask+1 != c.sets { // sets is not a power of two
		s, above = line%c.sets, line/c.sets
	}
	i := int(s) * c.words
	return uint32(above&tagMask) + 1, c.lines[i : i+c.words]
}

// zeroLanes sets the top bit of each lane of x that is zero and clears
// every other bit: (x-lanes)&^x sets a lane's top bit when the lane is
// zero. A borrow out of a zero low lane can also mark the high lane, but
// then the low lane, which comes first, is zero; so for z != 0 the first
// zero lane is ^z>>31&1 (0 low, 1 high).
func zeroLanes(x uint64) uint64 { return (x - lanes) &^ x & laneHigh }

// find returns the first way of a set's words holding v, or -1. Each word
// is tested for a lane equal to v at once: word^(v in both lanes) is zero
// in exactly the lanes that hold v.
func find(words []uint64, v uint32) int {
	both := uint64(v) * lanes
	for i, w := range words {
		if z := zeroLanes(w ^ both); z != 0 {
			return 2*i + int(^z>>31&1)
		}
	}
	return -1
}

// Access touches addr and returns whether it hit. On a miss the line is
// filled into the first free way, or over the set's last way when the set
// is full.
func (c *Cache) Access(addr uint64) bool {
	line := addr >> c.lineBits
	if line == c.last && c.hasLast {
		return true
	}
	return c.access(line)
}

// access looks line up, fills it on a miss and remembers it as the last
// line.
//
// One pass over the set, last word first, matches the tag and finds the
// victim: each word with a free lane makes its first free lane the
// victim, so the pass ends on the set's first free way, else on the last
// way (a free last way is the last way either way, and no pad lane is
// free). The pass has no early exit, and a hit stores its word back
// unchanged. To the host's branch predictor, whether a random access hits
// is a coin flip, and selects in place of branches keep a mispredict from
// discarding the work of the accesses after it.
func (c *Cache) access(line uint64) bool {
	c.last, c.hasLast = line, true
	tag, words := c.set(line)
	both := uint64(tag) * lanes
	victim, match := c.ways-1, uint64(0)
	for i := len(words) - 1; i >= 0; i-- {
		w := words[i]
		match |= zeroLanes(w ^ both)
		if z := zeroLanes(w); z != 0 {
			victim = 2*i + int(^z>>31&1)
		}
	}
	hit := match != 0
	shift := 32 * uint(victim%2)
	old := words[victim/2]
	filled := old&^(pad<<shift) | uint64(tag)<<shift
	if hit {
		filled = old
	}
	words[victim/2] = filled
	return hit
}

// Contains reports whether addr's line is cached, without filling it or
// updating statistics (a probe, not an access).
func (c *Cache) Contains(addr uint64) bool {
	tag, words := c.set(addr >> c.lineBits)
	return find(words, tag) >= 0
}

// Flush evicts addr's line if present and reports whether it was cached.
func (c *Cache) Flush(addr uint64) bool {
	tag, words := c.set(addr >> c.lineBits)
	w := find(words, tag)
	if w < 0 {
		return false
	}
	shift := 32 * uint(w%2)
	words[w/2] &^= pad << shift
	// The last line may be the one evicted.
	c.hasLast = false
	return true
}

// Name returns the cache's configured name.
func (c *Cache) Name() string { return c.name }

// TLB is a fully-associative translation lookaside buffer over 31-bit
// page numbers with the cache's policy: a miss fills the first free entry,
// else replaces the last one. Only Flush frees entries, so the entries in
// use are always a prefix, and all but the last stay put until the next
// Flush.
type TLB struct {
	pageBits uint
	// pages holds each entry's page number plus one, free when empty;
	// entries [0, used) are in use, and so is the last once it is filled.
	// Resident pages are unique.
	pages []uint32
	used  int
	last  int // the most recently hit or filled entry
	// settled is an insert-only open-addressing set of the pages in
	// entries [0, len(pages)-1), which no miss replaces. It has at least
	// four times as many slots as entries, so it is at most a quarter
	// full and a miss's probe ends at a free slot after few steps.
	settled []uint32
	shift   uint
}

// NewTLB builds a TLB with the given entry count and page size; page sizes
// below one byte are normalised to 4096.
func NewTLB(entries, pageSize int) *TLB {
	if entries < 1 {
		entries = 1
	}
	if pageSize < 1 {
		pageSize = 4096
	}
	bits := log2Ceil(4 * entries)
	return &TLB{
		pageBits: log2Ceil(pageSize),
		pages:    make([]uint32, entries),
		settled:  make([]uint32, 1<<bits),
		shift:    64 - bits,
	}
}

// Access translates addr and returns whether the page entry was resident.
// Once every settled entry is in use, a miss only replaces the last
// entry, which Access does with selects rather than a branch on the
// lookup, as Cache.access does.
func (t *TLB) Access(addr uint64) bool {
	page := uint32(addr>>t.pageBits&tagMask) + 1
	n := len(t.pages) - 1
	if t.pages[t.last] == page || t.pages[n] == page {
		return true
	}
	i := t.slot(page)
	hit := t.settled[i] == page
	if t.used < n {
		if hit {
			return true
		}
		t.pages[t.used] = page
		t.last = t.used
		t.used++
		t.settled[i] = page
		return false
	}
	keep, last := t.pages[n], t.last
	if !hit {
		keep, last = page, n
	}
	t.pages[n], t.last = keep, last
	return hit
}

// slot returns the settled slot holding page, or the free slot where it
// belongs.
func (t *TLB) slot(page uint32) uint64 {
	mask := uint64(len(t.settled) - 1)
	i := (uint64(page) * 0x9e3779b97f4a7c15) >> t.shift
	for t.settled[i] != page && t.settled[i] != free {
		i = (i + 1) & mask
	}
	return i
}

// Flush invalidates every entry (context-switch analog), leaving the TLB
// as NewTLB built it.
func (t *TLB) Flush() {
	clear(t.pages)
	clear(t.settled)
	t.used = 0
	t.last = 0
}
