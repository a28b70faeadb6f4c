package experiment

import (
	"testing"

	"github.com/repro/aegis/internal/telemetry"
)

// TestArtifactDirBacksProfiling checks that Scale.ArtifactDir backs the
// profiling experiments without changing them: Fig. 8 renders the same
// text with no store, with a cold store and with the same store warm, and
// the warm run resumes from the shards the cold run wrote.
func TestArtifactDirBacksProfiling(t *testing.T) {
	sc := TestScale(1)
	want, err := Figure8(sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.ArtifactDir = t.TempDir()
	for _, run := range []string{"cold", "warm"} {
		before := storeHits()
		got, err := Figure8(sc)
		if err != nil {
			t.Fatalf("%s store: %v", run, err)
		}
		if got.Render() != want.Render() {
			t.Errorf("%s store: Figure8 renders\n%s\nwant\n%s", run, got.Render(), want.Render())
		}
		if hits := storeHits() - before; run == "warm" && hits == 0 {
			t.Error("warm store: Figure8 recorded no artifact-store hits")
		}
	}
}

// storeHits sums the artifact store's cache hits over every kind.
func storeHits() float64 {
	var n float64
	for _, c := range telemetry.Default().Snapshot().Counters {
		if c.Name == "artifact_cache_hits_total" {
			n += c.Value
		}
	}
	return n
}
