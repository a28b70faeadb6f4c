package workload

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/rng"
)

// Crypto workload: a square-and-multiply modular exponentiation whose
// per-bit instruction pattern depends on the secret exponent, the classic
// key-leaking structure of RSA implementations. The paper lists "stealing
// cryptographic keys" as future work (§X); this workload extends the
// framework to that attack class: each key bit produces a squaring burst,
// and 1-bits add a multiply burst, so the HPC time series leaks the key
// pattern — exactly what Bhattacharya & Mukhopadhyay exploited with HPCs
// (paper reference [20]).

// KeyBits is the exponent width of the crypto workload.
const KeyBits = 12

// CryptoKeys returns n distinct exponent secrets as bit strings, drawn
// deterministically so the secret set is stable across runs.
func CryptoKeys(n int) []string {
	if n < 1 {
		n = 1
	}
	if n > 1<<KeyBits {
		n = 1 << KeyBits
	}
	r := rng.New(rng.HashString("crypto-keys")).Split("keys")
	seen := make(map[uint64]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		k := r.Uint64() % (1 << KeyBits)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, keyLabel(k))
	}
	return out
}

func keyLabel(k uint64) string {
	return fmt.Sprintf("key-%0*b", KeyBits, k)
}

// parseKeyLabel recovers the exponent bits from a secret label.
func parseKeyLabel(label string) (uint64, error) {
	if !strings.HasPrefix(label, "key-") {
		return 0, fmt.Errorf("workload: bad key label %q", label)
	}
	v, err := strconv.ParseUint(label[4:], 2, KeyBits+1)
	if err != nil {
		return 0, fmt.Errorf("workload: bad key label %q: %w", label, err)
	}
	return v, nil
}

// CryptoJob builds one modular-exponentiation execution for the exponent
// encoded in label. Per key bit (MSB first): a squaring phase (multiply
// heavy); for 1-bits an additional multiply phase with extra memory
// traffic (the multiplication by the base re-reads the operand tables).
func CryptoJob(label string, r *rng.Source) (Job, error) {
	key, err := parseKeyLabel(label)
	if err != nil {
		return Job{}, err
	}
	jitter := func(n int) int {
		v := int(float64(n) * (1 + r.Gaussian(0, 0.06)))
		if v < 50 {
			v = 50
		}
		return v
	}
	squareMix := Mix{
		isa.ClassMul:  4,
		isa.ClassALU:  2,
		isa.ClassLoad: 1.5,
		isa.ClassBit:  1,
	}
	multiplyMix := Mix{
		isa.ClassMul:   4,
		isa.ClassLoad:  3, // operand table reads
		isa.ClassStore: 1.5,
		isa.ClassALU:   1,
	}
	reduceMix := Mix{
		isa.ClassDiv:    1.5, // modular reduction
		isa.ClassALU:    2,
		isa.ClassBranch: 1,
	}

	job := Job{Label: label}
	for bit := KeyBits - 1; bit >= 0; bit-- {
		job.Phases = append(job.Phases, Phase{
			Name:         "square",
			Mix:          squareMix,
			Instructions: jitter(700),
			Intensity:    700,
			WorkingSet:   8 << 10,
		})
		if key&(1<<uint(bit)) != 0 {
			job.Phases = append(job.Phases, Phase{
				Name:         "multiply",
				Mix:          multiplyMix,
				Instructions: jitter(650),
				Intensity:    700,
				WorkingSet:   32 << 10,
			})
		}
		job.Phases = append(job.Phases, Phase{
			Name:         "reduce",
			Mix:          reduceMix,
			Instructions: jitter(250),
			Intensity:    700,
			WorkingSet:   8 << 10,
		})
	}
	return job, nil
}

// CryptoApp is the cryptographic application whose secrets are exponent
// keys.
type CryptoApp struct {
	// Keys overrides the secret set; nil draws NumKeys defaults.
	Keys []string
	// NumKeys sizes the default secret set (0 means 16).
	NumKeys int
}

var _ App = (*CryptoApp)(nil)

// Name implements App.
func (a *CryptoApp) Name() string { return "crypto" }

// Secrets implements App.
func (a *CryptoApp) Secrets() []string {
	if a.Keys != nil {
		return append([]string(nil), a.Keys...)
	}
	n := a.NumKeys
	if n <= 0 {
		n = 16
	}
	return CryptoKeys(n)
}

// Job implements App.
func (a *CryptoApp) Job(secret string, r *rng.Source) (Job, error) {
	for _, s := range a.Secrets() {
		if s == secret {
			return CryptoJob(secret, r)
		}
	}
	return Job{}, fmt.Errorf("workload: unknown key %q", secret)
}
