package microarch

// BranchPredictor is a table of 2-bit saturating counters indexed by a hash
// of the branch address, the classic bimodal predictor.
type BranchPredictor struct {
	table []uint8
}

// NewBranchPredictor builds a predictor with the given table size (rounded
// up to at least 16 entries).
func NewBranchPredictor(entries int) *BranchPredictor {
	if entries < 16 {
		entries = 16
	}
	return &BranchPredictor{table: make([]uint8, entries)}
}

func (b *BranchPredictor) index(pc uint64) int {
	// Mix the PC so nearby branches don't systematically alias.
	pc ^= pc >> 16
	pc *= 0x45d9f3b3335b369d
	pc ^= pc >> 32
	return int(pc % uint64(len(b.table)))
}

// Resolve records the actual outcome, updates the counter, and reports
// whether the prediction was wrong.
func (b *BranchPredictor) Resolve(pc uint64, taken bool) bool {
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
