package profiler

import (
	"runtime"
	"strings"
	"testing"

	"github.com/repro/aegis/internal/artifact"
	"github.com/repro/aegis/internal/hpc"
)

func resumeEvents(cat *hpc.Catalog) []*hpc.Event {
	return []*hpc.Event{
		cat.MustByName("RETIRED_UOPS"),
		cat.MustByName("LS_DISPATCH"),
		cat.MustByName("DATA_CACHE_REFILLS_FROM_SYSTEM"),
		cat.MustByName("MAB_ALLOCATION_BY_PIPE"),
		cat.MustByName("HW_CACHE_L1D:WRITE"),
		cat.MustByName("RETIRED_X87_FP_OPS"),
	}
}

// TestRankResumeByteIdentical pins the campaign-resume contract: a cold
// store-less ranking, a partial campaign killed after K events, and a
// resumed full campaign against the partial campaign's store must produce
// byte-identical rankings — at parallelism 1, 4 and GOMAXPROCS. It also
// pins the delta-recompute funnel: the resumed run must re-score only the
// cells the partial campaign never finished.
func TestRankResumeByteIdentical(t *testing.T) {
	cat := hpc.NewAMDEpyc7252Catalog(1)
	events := resumeEvents(cat)
	app := smallWebsiteApp()
	const kill = 3 // the partial campaign dies after K=3 events

	coldCfg := smallConfig(91)
	coldCfg.Parallelism = 1
	cold, err := New(cat, coldCfg).Rank(app, events)
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprintRanking(cold)

	for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		store, err := artifact.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cfg := smallConfig(91)
		cfg.Parallelism = w
		cfg.Store = store
		// Partial campaign: emulates a run killed at shard K — its store
		// holds every trace artifact and the first K score artifacts.
		if _, err := New(cat, cfg).Rank(app, events[:kill]); err != nil {
			t.Fatal(err)
		}

		traceHit0, scoreHit0 := mResumeTraceHit.Value(), mResumeScoreHit.Value()
		traceMiss0, scoreMiss0 := mResumeTraceMiss.Value(), mResumeScoreMiss.Value()
		resumed, err := New(cat, cfg).Rank(app, events)
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprintRanking(resumed); got != want {
			t.Errorf("parallelism %d: resumed ranking differs from cold run", w)
		}
		// Funnel: every secret's traces and the first K scores come from
		// the store; only the unfinished cells recompute.
		secrets := len(app.Secrets())
		if hits := mResumeTraceHit.Value() - traceHit0; hits != float64(secrets) {
			t.Errorf("parallelism %d: trace hits = %v, want %d", w, hits, secrets)
		}
		if misses := mResumeTraceMiss.Value() - traceMiss0; misses != 0 {
			t.Errorf("parallelism %d: trace misses = %v, want 0", w, misses)
		}
		if hits := mResumeScoreHit.Value() - scoreHit0; hits != kill {
			t.Errorf("parallelism %d: score hits = %v, want %d", w, hits, kill)
		}
		if misses := mResumeScoreMiss.Value() - scoreMiss0; misses != float64(len(events)-kill) {
			t.Errorf("parallelism %d: score misses = %v, want %d", w, misses, len(events)-kill)
		}
	}
}

// TestWarmupResumeByteIdentical: a second warm-up against the same store
// restores the verdict bitmap instead of re-measuring, with an identical
// surviving set.
func TestWarmupResumeByteIdentical(t *testing.T) {
	cat := hpc.NewAMDEpyc7252Catalog(1)
	app := smallWebsiteApp()
	names := func(res *WarmupResult) string {
		var sb strings.Builder
		for _, e := range res.Remaining {
			sb.WriteString(e.Name)
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	coldCfg := smallConfig(92)
	cold, err := New(cat, coldCfg).Warmup(app)
	if err != nil {
		t.Fatal(err)
	}

	store, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(92)
	cfg.Store = store
	first, err := New(cat, cfg).Warmup(app)
	if err != nil {
		t.Fatal(err)
	}
	hit0 := mResumeWarmupHit.Value()
	second, err := New(cat, cfg).Warmup(app)
	if err != nil {
		t.Fatal(err)
	}
	if mResumeWarmupHit.Value()-hit0 != 1 {
		t.Error("second warm-up did not resume from the store")
	}
	if names(first) != names(cold) || names(second) != names(cold) {
		t.Error("store-backed warm-up differs from cold run")
	}
	if second.TotalEvents != cold.TotalEvents ||
		len(second.RemainingPerType) != len(cold.RemainingPerType) {
		t.Error("resumed warm-up result shape drifted")
	}

	// A different seed must not hit the cached bitmap: the fingerprint
	// covers every input of the sweep.
	other := smallConfig(93)
	other.Store = store
	miss0 := mResumeWarmupMiss.Value()
	if _, err := New(cat, other).Warmup(app); err != nil {
		t.Fatal(err)
	}
	if mResumeWarmupMiss.Value()-miss0 != 1 {
		t.Error("changed seed resumed from a stale artifact")
	}
}

// TestArtifactFingerprintsPinned pins the artifact addresses of a
// DefaultConfig profiler for one event, app and secret. The warm-up
// threshold is part of warmupFP, so an existing store stays warm only
// while these hold; a change here invalidates every cached profile.
func TestArtifactFingerprintsPinned(t *testing.T) {
	cat := hpc.NewAMDEpyc7252Catalog(1)
	p := New(cat, DefaultConfig(1))
	app := smallWebsiteApp()
	trace := p.traceFP(app, "google.com")
	for name, c := range map[string]struct{ got, want string }{
		"warmupFP": {p.warmupFP(app), "396213d6151a0812"},
		"traceFP":  {trace, "b60af290e79b2159"},
		"scoreFP":  {p.scoreFP(cat.MustByName("RETIRED_UOPS"), trace), "22e86144d42585c3"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %s, want %s", name, c.got, c.want)
		}
	}
}
