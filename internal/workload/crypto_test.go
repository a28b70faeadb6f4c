package workload

import (
	"strings"
	"testing"

	"github.com/repro/aegis/internal/rng"
)

func TestCryptoKeysDistinct(t *testing.T) {
	keys := CryptoKeys(16)
	if len(keys) != 16 {
		t.Fatalf("keys = %d", len(keys))
	}
	seen := map[string]bool{}
	for _, k := range keys {
		if seen[k] {
			t.Fatalf("duplicate key %q", k)
		}
		seen[k] = true
		if !strings.HasPrefix(k, "key-") || len(k) != 4+KeyBits {
			t.Fatalf("malformed key label %q", k)
		}
	}
	// Deterministic across calls.
	again := CryptoKeys(16)
	for i := range keys {
		if keys[i] != again[i] {
			t.Fatal("key set not deterministic")
		}
	}
}

func TestCryptoKeysBounds(t *testing.T) {
	if got := len(CryptoKeys(0)); got != 1 {
		t.Errorf("CryptoKeys(0) = %d keys", got)
	}
	if got := len(CryptoKeys(1 << 20)); got != 1<<KeyBits {
		t.Errorf("oversized request returned %d keys", got)
	}
}

func TestCryptoJobStructure(t *testing.T) {
	r := rng.New(1)
	allOnes := keyLabel(1<<KeyBits - 1)
	allZeros := keyLabel(0)
	j1, err := CryptoJob(allOnes, r.Split("a"))
	if err != nil {
		t.Fatal(err)
	}
	j0, err := CryptoJob(allZeros, r.Split("b"))
	if err != nil {
		t.Fatal(err)
	}
	// All-ones key: square+multiply+reduce per bit; all-zeros: no multiply.
	if len(j1.Phases) != 3*KeyBits {
		t.Errorf("all-ones phases = %d, want %d", len(j1.Phases), 3*KeyBits)
	}
	if len(j0.Phases) != 2*KeyBits {
		t.Errorf("all-zeros phases = %d, want %d", len(j0.Phases), 2*KeyBits)
	}
	// The multiply phases make the 1-heavy key's job longer — the leak.
	if j1.TotalInstructions() <= j0.TotalInstructions() {
		t.Error("all-ones key not more expensive than all-zeros key")
	}
}

func TestCryptoJobBadLabel(t *testing.T) {
	if _, err := CryptoJob("nonsense", rng.New(1)); err == nil {
		t.Error("bad label accepted")
	}
	if _, err := CryptoJob("key-xyz", rng.New(1)); err == nil {
		t.Error("non-binary label accepted")
	}
}

func TestCryptoAppInterface(t *testing.T) {
	app := &CryptoApp{NumKeys: 8}
	secrets := app.Secrets()
	if len(secrets) != 8 {
		t.Fatalf("secrets = %d", len(secrets))
	}
	job, err := app.Job(secrets[0], rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if job.Label != secrets[0] {
		t.Errorf("label = %q", job.Label)
	}
	if _, err := app.Job("key-000000000000", rng.New(2)); err == nil {
		// Only an error if not in the secret set.
		found := false
		for _, s := range secrets {
			if s == "key-000000000000" {
				found = true
			}
		}
		if !found {
			t.Error("out-of-set key accepted")
		}
	}
}

// TestHammingWeight checks that a key's Hamming weight, the first-order
// quantity the side channel leaks, is the number of multiply phases its
// exponentiation runs.
func TestHammingWeight(t *testing.T) {
	job, err := CryptoJob(keyLabel(0b101000000011), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	multiplies := 0
	for _, p := range job.Phases {
		if p.Name == "multiply" {
			multiplies++
		}
	}
	if multiplies != 4 {
		t.Errorf("multiply phases = %d, want the key's weight 4", multiplies)
	}
}
