package ml

import (
	"fmt"
	"math"
	"sort"
)

// Connectionist Temporal Classification (Graves et al. 2006), the loss and
// decoders used by the model extraction attack's sequence model. Symbol 0
// is the blank; external labels in [0, classes) map to internal symbols
// label+1.

// ctcLossGrad computes the CTC negative log-likelihood of label given the
// per-timestep logits, and the gradient of the loss with respect to the
// logits. Logits have width classes+1 (blank first).
func ctcLossGrad(logits [][]float64, label []int, classes int) (float64, [][]float64, error) {
	T := len(logits)
	if T == 0 {
		return 0, nil, ErrNoTrainingData
	}
	L := len(label)
	S := 2*L + 1
	if T < L {
		return 0, nil, fmt.Errorf("ml: sequence length %d shorter than label length %d", T, L)
	}
	for _, l := range label {
		if l < 0 || l >= classes {
			return 0, nil, fmt.Errorf("ml: label symbol %d out of range [0,%d)", l, classes)
		}
	}

	// Extended label with interleaved blanks: blank, l1, blank, l2, ...
	ext := make([]int, S)
	for i := 0; i < L; i++ {
		ext[2*i+1] = label[i] + 1
	}

	logProbs := make([][]float64, T)
	for t := range logits {
		logProbs[t] = LogSoftmax(logits[t])
	}

	negInf := math.Inf(-1)
	alpha := make([][]float64, T)
	beta := make([][]float64, T)
	for t := 0; t < T; t++ {
		alpha[t] = make([]float64, S)
		beta[t] = make([]float64, S)
		for s := 0; s < S; s++ {
			alpha[t][s] = negInf
			beta[t][s] = negInf
		}
	}

	// Forward.
	alpha[0][0] = logProbs[0][ext[0]]
	if S > 1 {
		alpha[0][1] = logProbs[0][ext[1]]
	}
	for t := 1; t < T; t++ {
		for s := 0; s < S; s++ {
			a := alpha[t-1][s]
			if s > 0 {
				a = logSumExp(a, alpha[t-1][s-1])
			}
			if s > 1 && ext[s] != 0 && ext[s] != ext[s-2] {
				a = logSumExp(a, alpha[t-1][s-2])
			}
			if !math.IsInf(a, -1) {
				alpha[t][s] = a + logProbs[t][ext[s]]
			}
		}
	}

	logP := alpha[T-1][S-1]
	if S > 1 {
		logP = logSumExp(logP, alpha[T-1][S-2])
	}
	if math.IsInf(logP, -1) {
		return 0, nil, fmt.Errorf("ml: CTC alignment impossible (T=%d, L=%d)", T, L)
	}

	// Backward.
	beta[T-1][S-1] = logProbs[T-1][ext[S-1]]
	if S > 1 {
		beta[T-1][S-2] = logProbs[T-1][ext[S-2]]
	}
	for t := T - 2; t >= 0; t-- {
		for s := S - 1; s >= 0; s-- {
			b := beta[t+1][s]
			if s+1 < S {
				b = logSumExp(b, beta[t+1][s+1])
			}
			if s+2 < S && ext[s+2] != 0 && ext[s+2] != ext[s] {
				b = logSumExp(b, beta[t+1][s+2])
			}
			if !math.IsInf(b, -1) {
				beta[t][s] = b + logProbs[t][ext[s]]
			}
		}
	}

	// Gradient wrt logits: softmax - gamma.
	grads := make([][]float64, T)
	for t := 0; t < T; t++ {
		grads[t] = make([]float64, classes+1)
		// Per-symbol posterior mass.
		gamma := make([]float64, classes+1)
		for i := range gamma {
			gamma[i] = negInf
		}
		for s := 0; s < S; s++ {
			if math.IsInf(alpha[t][s], -1) || math.IsInf(beta[t][s], -1) {
				continue
			}
			// alpha and beta both include logProbs[t][ext[s]]; remove one.
			v := alpha[t][s] + beta[t][s] - logProbs[t][ext[s]]
			gamma[ext[s]] = logSumExp(gamma[ext[s]], v)
		}
		for k := 0; k <= classes; k++ {
			y := math.Exp(logProbs[t][k])
			var post float64
			if !math.IsInf(gamma[k], -1) {
				post = math.Exp(gamma[k] - logP)
			}
			grads[t][k] = y - post
		}
	}
	return -logP, grads, nil
}

// GreedyCTCDecode performs best-path decoding: per-timestep argmax,
// collapse repeats, remove blanks. Returned symbols use the external
// alphabet [0, classes).
func GreedyCTCDecode(logits [][]float64) []int {
	out := make([]int, 0, len(logits))
	prev := -1
	for _, row := range logits {
		k := Argmax(row)
		if k != prev && k != 0 {
			out = append(out, k-1)
		}
		prev = k
	}
	return out
}

// beamEntry tracks the probability of a prefix ending in blank / non-blank.
type beamEntry struct {
	pBlank    float64 // log prob of prefix with last symbol blank
	pNonBlank float64 // log prob of prefix ending in its last label
}

func (b beamEntry) total() float64 { return logSumExp(b.pBlank, b.pNonBlank) }

// BeamCTCDecode performs prefix beam search over the logits with the given
// beam width, returning the most probable label sequence (external
// alphabet). Width <= 1 falls back to greedy decoding.
func BeamCTCDecode(logits [][]float64, width int) []int {
	if width <= 1 {
		return GreedyCTCDecode(logits)
	}
	negInf := math.Inf(-1)
	type prefixKey string
	encode := func(p []int) prefixKey {
		b := make([]byte, 0, len(p)*2)
		for _, v := range p {
			b = append(b, byte(v>>8), byte(v))
		}
		return prefixKey(b)
	}

	beams := map[prefixKey][]int{encode(nil): nil}
	probs := map[prefixKey]beamEntry{encode(nil): {pBlank: 0, pNonBlank: negInf}}

	for _, row := range logits {
		lp := LogSoftmax(row)
		nextProbs := make(map[prefixKey]beamEntry, len(probs)*2)
		nextBeams := make(map[prefixKey][]int, len(probs)*2)
		upsert := func(p []int, blankLP, nonBlankLP float64) {
			k := encode(p)
			e, ok := nextProbs[k]
			if !ok {
				e = beamEntry{pBlank: negInf, pNonBlank: negInf}
				nextBeams[k] = p
			}
			e.pBlank = logSumExp(e.pBlank, blankLP)
			e.pNonBlank = logSumExp(e.pNonBlank, nonBlankLP)
			nextProbs[k] = e
		}

		for k, prefix := range beams {
			e := probs[k]
			// Extend with blank: prefix unchanged.
			upsert(prefix, e.total()+lp[0], negInf)
			// Extend with symbols.
			for sym := 1; sym < len(lp); sym++ {
				label := sym - 1
				symLP := lp[sym]
				if len(prefix) > 0 && prefix[len(prefix)-1] == label {
					// Repeating the last symbol without a separating
					// blank collapses into the existing run.
					upsert(prefix, negInf, e.pNonBlank+symLP)
					// A blank in between starts a new occurrence.
					extended := append(append([]int(nil), prefix...), label)
					upsert(extended, negInf, e.pBlank+symLP)
					continue
				}
				extended := append(append([]int(nil), prefix...), label)
				upsert(extended, negInf, e.total()+symLP)
			}
		}

		// Prune to width.
		type scored struct {
			key   prefixKey
			score float64
		}
		all := make([]scored, 0, len(nextProbs))
		for k, e := range nextProbs {
			all = append(all, scored{k, e.total()})
		}
		sort.Slice(all, func(i, j int) bool { return all[i].score > all[j].score })
		if len(all) > width {
			all = all[:width]
		}
		beams = make(map[prefixKey][]int, len(all))
		probs = make(map[prefixKey]beamEntry, len(all))
		for _, s := range all {
			beams[s.key] = nextBeams[s.key]
			probs[s.key] = nextProbs[s.key]
		}
	}

	var best []int
	bestScore := negInf
	for k, prefix := range beams {
		if s := probs[k].total(); s > bestScore {
			bestScore = s
			best = prefix
		}
	}
	if best == nil {
		return []int{}
	}
	return best
}
