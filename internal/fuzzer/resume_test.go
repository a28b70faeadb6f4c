package fuzzer

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"github.com/repro/aegis/internal/artifact"
	"github.com/repro/aegis/internal/faultinject"
	"github.com/repro/aegis/internal/hpc"
)

func resumeEvents(cat *hpc.Catalog) []*hpc.Event {
	return []*hpc.Event{
		cat.MustByName("RETIRED_UOPS"),
		cat.MustByName("LS_DISPATCH"),
		cat.MustByName("MAB_ALLOCATION_BY_PIPE"),
		cat.MustByName("DATA_CACHE_REFILLS_FROM_SYSTEM"),
	}
}

// campaignFingerprint runs Fuzz + MinimalCover and serialises everything
// observable, bit-exact.
func campaignFingerprint(t *testing.T, f *Fuzzer, events []*hpc.Event) string {
	t.Helper()
	res, err := f.Fuzz(events)
	if res == nil {
		t.Fatal(err)
	}
	cover, err := f.MinimalCover(res, events)
	if err != nil {
		t.Fatal(err)
	}
	fp := fingerprintResult(res, events)
	for _, c := range cover {
		fp += fmt.Sprintf("cover %s -> %s\n", c.Finding.Gadget.Key(), strings.Join(c.Covers, ","))
	}
	return fp
}

// TestFuzzResumeByteIdentical pins the campaign-resume contract: a cold
// store-less campaign, a partial campaign killed after K events, and a
// resumed full campaign against the partial campaign's store must produce
// byte-identical Results and covers — at parallelism 1, 4 and GOMAXPROCS
// — and the resumed run must re-fuzz only the unfinished events.
func TestFuzzResumeByteIdentical(t *testing.T) {
	cat := hpc.NewAMDEpyc7252Catalog(1)
	events := resumeEvents(cat)
	legal := legalAMD(t)
	const kill = 2 // the partial campaign dies after K=2 events

	coldCfg := smallConfig(51)
	coldCfg.Parallelism = 1
	fCold, err := New(legal, coldCfg)
	if err != nil {
		t.Fatal(err)
	}
	want := campaignFingerprint(t, fCold, events)

	for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		store, err := artifact.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cfg := smallConfig(51)
		cfg.Parallelism = w
		cfg.Store = store
		fPart, err := New(legal, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fPart.Fuzz(events[:kill]); err != nil {
			t.Fatal(err)
		}

		hit0, miss0 := mFuzzResumeHit.Value(), mFuzzResumeMiss.Value()
		fRes, err := New(legal, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := campaignFingerprint(t, fRes, events); got != want {
			t.Errorf("parallelism %d: resumed campaign differs from cold run", w)
		}
		if hits := mFuzzResumeHit.Value() - hit0; hits != kill {
			t.Errorf("parallelism %d: event hits = %v, want %d", w, hits, kill)
		}
		if misses := mFuzzResumeMiss.Value() - miss0; misses != float64(len(events)-kill) {
			t.Errorf("parallelism %d: event misses = %v, want %d", w, misses, len(events)-kill)
		}
	}
}

// TestFuzzResumeFaulted runs the resume contract on a faulted substrate
// (the light preset): fault schedules derive from (Seed, labels), so a
// resumed campaign must match a cold faulted campaign byte for byte, and
// failed events must never be served from the store.
func TestFuzzResumeFaulted(t *testing.T) {
	cat := hpc.NewAMDEpyc7252Catalog(1)
	events := resumeEvents(cat)
	legal := legalAMD(t)
	faults, err := faultinject.Preset(faultinject.PresetLight, 7)
	if err != nil {
		t.Fatal(err)
	}

	coldCfg := smallConfig(52)
	coldCfg.Parallelism = 1
	coldCfg.Faults = faults
	fCold, err := New(legal, coldCfg)
	if err != nil {
		t.Fatal(err)
	}
	want := campaignFingerprint(t, fCold, events)

	store, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(52)
	cfg.Parallelism = 4
	cfg.Faults = faults
	cfg.Store = store
	fPart, err := New(legal, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := fPart.Fuzz(events[:2]); res == nil {
		t.Fatal(err)
	}
	fRes, err := New(legal, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := campaignFingerprint(t, fRes, events); got != want {
		t.Error("faulted resumed campaign differs from cold faulted run")
	}
}

// TestFuzzResumeStaleConfigMisses: any campaign-config delta must change
// the fingerprint and bypass the cached findings.
func TestFuzzResumeStaleConfigMisses(t *testing.T) {
	cat := hpc.NewAMDEpyc7252Catalog(1)
	events := resumeEvents(cat)[:1]
	legal := legalAMD(t)
	store, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(53)
	cfg.Store = store
	f1, err := New(legal, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f1.Fuzz(events); err != nil {
		t.Fatal(err)
	}
	stale := cfg
	stale.CandidatesPerEvent += 25
	f2, err := New(legal, stale)
	if err != nil {
		t.Fatal(err)
	}
	miss0 := mFuzzResumeMiss.Value()
	if _, err := f2.Fuzz(events); err != nil {
		t.Fatal(err)
	}
	if mFuzzResumeMiss.Value()-miss0 != 1 {
		t.Error("changed campaign config resumed from a stale artifact")
	}
}

// TestArtifactFingerprintsPinned pins the artifact addresses of a
// DefaultConfig fuzzer. The confirmation constants (R, λ1, λ2, the
// minimum delta, measurement noise) are part of eventFP, so an existing
// store stays warm only while these hold; a change here invalidates every
// cached campaign.
func TestArtifactFingerprintsPinned(t *testing.T) {
	cat := hpc.NewAMDEpyc7252Catalog(1)
	f, err := New(legalAMD(t), DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct{ got, want string }{
		"eventFP": {f.eventFP(cat.MustByName("RETIRED_UOPS")), "471f808354fbca0e"},
		"memoFP":  {f.memoFP(), "28e8b94867e3ebcb"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %s, want %s", name, c.got, c.want)
		}
	}
}
