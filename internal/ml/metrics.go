package ml

// EditDistance returns the Levenshtein distance between two integer
// sequences.
func EditDistance(a, b []int) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j] + 1 // deletion
			if v := cur[j-1] + 1; v < m {
				m = v // insertion
			}
			if v := prev[j-1] + cost; v < m {
				m = v // substitution
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// SequenceAccuracy returns the layer-matching statistic the paper reports
// for the model extraction attack: 1 - editDistance/len(label), clamped to
// [0, 1]. A perfect prediction scores 1; an empty prediction scores 0.
func SequenceAccuracy(pred, label []int) float64 {
	if len(label) == 0 {
		if len(pred) == 0 {
			return 1
		}
		return 0
	}
	d := EditDistance(pred, label)
	acc := 1 - float64(d)/float64(len(label))
	if acc < 0 {
		acc = 0
	}
	return acc
}

// MeanSequenceAccuracy averages SequenceAccuracy over a batch.
func MeanSequenceAccuracy(preds, labels [][]int) float64 {
	if len(preds) == 0 || len(preds) != len(labels) {
		return 0
	}
	var sum float64
	for i := range preds {
		sum += SequenceAccuracy(preds[i], labels[i])
	}
	return sum / float64(len(preds))
}
