package obfuscator

import (
	"testing"

	"github.com/repro/aegis/internal/rng"
)

// BenchmarkMechanismNoise measures the per-tick noise draw of each
// mechanism end to end, including the D* observation bookkeeping.
func BenchmarkMechanismNoise(b *testing.B) {
	b.Run("laplace", func(b *testing.B) {
		m, err := NewLaplaceMechanism(1.0, 1.0, rng.New(2).Split("bench"))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += m.Noise(int64(i), 100)
		}
		_ = sink
	})
	b.Run("dstar", func(b *testing.B) {
		m, err := NewDStarMechanism(1.0, 1.0, rng.New(3).Split("bench"))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		var sink float64
		for i := 0; i < b.N; i++ {
			t := int64(i + 1)
			v := m.Noise(t, 100)
			m.Commit(t, v)
			sink += v
		}
		_ = sink
	})
}
