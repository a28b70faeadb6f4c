package profiler

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/workload"
)

// fingerprintRanking serialises a ranking with bit-exact scores so two runs
// can be compared for byte identity.
func fingerprintRanking(ranked []RankedEvent) string {
	var sb strings.Builder
	for _, r := range ranked {
		fmt.Fprintf(&sb, "%s mi=%x\n", r.Event.Name, math.Float64bits(r.MI))
		for _, c := range r.Classes {
			fmt.Fprintf(&sb, "  %s mu=%x sigma=%x\n",
				c.Secret, math.Float64bits(c.Dist.Mu), math.Float64bits(c.Dist.Sigma))
		}
	}
	return sb.String()
}

// TestRankDeterministicAcrossParallelism is the determinism regression test
// of the ranking fan-out: parallelism 1, 4 and GOMAXPROCS must produce
// byte-identical rankings (same events, same bit-exact MI, same order).
func TestRankDeterministicAcrossParallelism(t *testing.T) {
	cat := hpc.NewAMDEpyc7252Catalog(1)
	events := []*hpc.Event{
		cat.MustByName("RETIRED_UOPS"),
		cat.MustByName("LS_DISPATCH"),
		cat.MustByName("DATA_CACHE_REFILLS_FROM_SYSTEM"),
		cat.MustByName("MAB_ALLOCATION_BY_PIPE"),
		cat.MustByName("HW_CACHE_L1D:WRITE"),
		cat.MustByName("RETIRED_X87_FP_OPS"),
	}
	run := func(parallelism int) string {
		cfg := smallConfig(77)
		cfg.Parallelism = parallelism
		p := New(cat, cfg)
		ranked, err := p.Rank(smallWebsiteApp(), events)
		if err != nil {
			t.Fatal(err)
		}
		return fingerprintRanking(ranked)
	}
	serial := run(1)
	for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
		if got := run(w); got != serial {
			t.Errorf("ranking at parallelism %d differs from serial run", w)
		}
	}
}

// TestWarmupDeterministicAcrossParallelism: the warm-up sweep must keep the
// same surviving event set at any worker count.
func TestWarmupDeterministicAcrossParallelism(t *testing.T) {
	cat := hpc.NewAMDEpyc7252Catalog(1)
	run := func(parallelism int) string {
		cfg := smallConfig(78)
		cfg.Parallelism = parallelism
		p := New(cat, cfg)
		res, err := p.Warmup(smallWebsiteApp())
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, e := range res.Remaining {
			sb.WriteString(e.Name)
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	serial := run(1)
	for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
		if got := run(w); got != serial {
			t.Errorf("warm-up at parallelism %d differs from serial run", w)
		}
	}
}

// TestDistributionDeterministicAcrossParallelism: the per-secret sampling
// fan-out must reproduce the serial sample vector exactly.
func TestDistributionDeterministicAcrossParallelism(t *testing.T) {
	cat := hpc.NewAMDEpyc7252Catalog(1)
	ev := cat.MustByName("DATA_CACHE_REFILLS_FROM_SYSTEM")
	run := func(parallelism int) string {
		cfg := smallConfig(79)
		cfg.Parallelism = parallelism
		p := New(cat, cfg)
		dist, err := p.DistributionFor(smallWebsiteApp(), "github.com", ev, 24)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, s := range dist.Samples {
			fmt.Fprintf(&sb, "%x\n", math.Float64bits(s))
		}
		return sb.String()
	}
	serial := run(1)
	for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
		if got := run(w); got != serial {
			t.Errorf("distribution at parallelism %d differs from serial run", w)
		}
	}
}

// TestWarmupSumsPinned pins the bits of the warm-up's idle and active raw
// sums, which Warmup's verdicts are drawn from but never returns. The
// shards are derived as Warmup derives them: stream
// warmup/<rep>/<idle|active>, secret rep mod |secrets|.
func TestWarmupSumsPinned(t *testing.T) {
	const want = "14b4bff9e2677821"
	p := New(hpc.NewAMDEpyc7252Catalog(1), DefaultConfig(1))
	app := &workload.WebsiteApp{Sites: workload.Websites()[:4]}
	secrets := app.Secrets()
	h := sha256.New()
	for rep := 0; rep < p.cfg.WarmupRepeats; rep++ {
		for _, label := range []string{"idle", "active"} {
			raw, err := p.rawTrace(app, secrets[rep%len(secrets)], p.cfg.WarmupTicks,
				p.root.SplitN("warmup", rep).Split(label), label == "idle")
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%d %s", rep, label)
			for _, v := range sumVec(raw) {
				fmt.Fprintf(h, " %x", math.Float64bits(v))
			}
			fmt.Fprintln(h)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != want {
		t.Errorf("warm-up sums digest %s, want %s", got, want)
	}
}
