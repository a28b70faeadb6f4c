package microarch

// BranchPredictor is a table of 2-bit saturating counters indexed by a hash
// of the branch address, the classic bimodal predictor.
type BranchPredictor struct {
	// counters holds the 2-bit counters four to a byte: counter i is bits
	// 2*(i%4) and up of counters[i/4].
	counters []uint8
	entries  uint64
	mask     uint64 // entries-1 when entries is a power of two, else 0
}

// NewBranchPredictor builds a predictor with the given table size (rounded
// up to at least 16 entries).
func NewBranchPredictor(entries int) *BranchPredictor {
	if entries < 16 {
		entries = 16
	}
	b := &BranchPredictor{counters: make([]uint8, (entries+3)/4), entries: uint64(entries)}
	if entries&(entries-1) == 0 {
		b.mask = b.entries - 1
	}
	return b
}

func (b *BranchPredictor) index(pc uint64) uint64 {
	// Mix the PC so nearby branches don't systematically alias.
	pc ^= pc >> 16
	pc *= 0x45d9f3b3335b369d
	pc ^= pc >> 32
	// A mask instead of a division on the usual sizes.
	if b.mask+1 != b.entries { // entries is not a power of two
		return pc % b.entries
	}
	return pc & b.mask
}

// Resolve records the actual outcome, updates the counter, and reports
// whether the prediction was wrong.
func (b *BranchPredictor) Resolve(pc uint64, taken bool) bool {
	i := b.index(pc)
	cell, shift := &b.counters[i/4], 2*uint(i%4)
	ctr := *cell >> shift & 3
	switch {
	case taken && ctr < 3:
		*cell += 1 << shift
	case !taken && ctr > 0:
		*cell -= 1 << shift
	}
	return (ctr >= 2) != taken
}
