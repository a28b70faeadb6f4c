package experiment

import (
	"sync"
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

// TestDefenseKitBuiltOncePerSeed checks the kit memo: concurrent callers
// with the same seed and candidate budget share one kit whatever their
// parallelism, and another seed gets its own.
func TestDefenseKitBuiltOncePerSeed(t *testing.T) {
	const callers = 4
	kits := make([]*DefenseKit, callers)
	var wg sync.WaitGroup
	for i := range kits {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := TestScale(41)
			sc.Parallelism = 1 + i%2
			kit, err := BuildDefenseKit(sc)
			if err != nil {
				t.Error(err)
			}
			kits[i] = kit
		}()
	}
	wg.Wait()
	for i, kit := range kits {
		if kit == nil || kit != kits[0] {
			t.Fatalf("caller %d got kit %p, caller 0 got %p", i, kit, kits[0])
		}
	}
	other, err := BuildDefenseKit(TestScale(42))
	if err != nil {
		t.Fatal(err)
	}
	if other == kits[0] {
		t.Error("seeds 41 and 42 share a kit")
	}
}
