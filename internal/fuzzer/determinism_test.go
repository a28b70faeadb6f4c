package fuzzer

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"github.com/repro/aegis/internal/hpc"
)

// fingerprintResult serialises every observable part of a campaign Result —
// gadget keys, bit-exact deltas, representative ordering, best gadgets,
// skip records, candidate counts — so two runs can be compared for byte
// identity.
func fingerprintResult(res *Result, events []*hpc.Event) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "tried=%d measured=%d\n", res.CandidatesTried, res.CandidatesMeasured)
	for _, e := range events {
		if e == nil {
			continue
		}
		fmt.Fprintf(&sb, "event %s\n", e.Name)
		for _, fd := range res.PerEvent[e.Name] {
			fmt.Fprintf(&sb, "  finding %s delta=%x\n", fd.Gadget.Key(), math.Float64bits(fd.MedianDelta))
		}
		for _, fd := range res.Representatives[e.Name] {
			fmt.Fprintf(&sb, "  rep %s delta=%x\n", fd.Gadget.Key(), math.Float64bits(fd.MedianDelta))
		}
		if best, ok := res.Best[e.Name]; ok {
			fmt.Fprintf(&sb, "  best %s delta=%x\n", best.Gadget.Key(), math.Float64bits(best.MedianDelta))
		}
	}
	for _, sk := range res.Skipped {
		fmt.Fprintf(&sb, "skipped %s\n", sk.Event)
	}
	return sb.String()
}

// TestFuzzDeterministicAcrossParallelism is the determinism regression
// test of the campaign fan-out: parallelism 1, 4 and GOMAXPROCS must
// produce byte-identical Results (same gadgets, same bit-exact deltas,
// same ordering).
func TestFuzzDeterministicAcrossParallelism(t *testing.T) {
	cat := hpc.NewAMDEpyc7252Catalog(1)
	events := []*hpc.Event{
		cat.MustByName("RETIRED_UOPS"),
		cat.MustByName("LS_DISPATCH"),
		cat.MustByName("HW_CACHE_L1D:WRITE"),
		cat.MustByName("MAB_ALLOCATION_BY_PIPE"),
		cat.MustByName("DATA_CACHE_REFILLS_FROM_SYSTEM"),
		cat.MustByName("RETIRED_INSTRUCTIONS"),
	}
	run := func(parallelism int) string {
		cfg := smallConfig(42)
		cfg.Parallelism = parallelism
		f, err := New(legalAMD(t), cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Fuzz(events)
		if err != nil {
			t.Fatal(err)
		}
		// MinimalCover must be deterministic too: it reuses the shared
		// screening memo and its own fan-out.
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
	serial := run(1)
	for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
		if got := run(w); got != serial {
			t.Errorf("campaign at parallelism %d differs from serial run", w)
		}
	}
}

// TestFuzzSkipsFailingEvent exercises the partial-result contract: one
// failing event must not abort the campaign — it is skipped, recorded, and
// the error wraps the per-event failure while the other events' findings
// are fully reported.
func TestFuzzSkipsFailingEvent(t *testing.T) {
	f, err := New(legalAMD(t), smallConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	cat := hpc.NewAMDEpyc7252Catalog(1)
	good1 := cat.MustByName("RETIRED_UOPS")
	good2 := cat.MustByName("LS_DISPATCH")
	res, err := f.Fuzz([]*hpc.Event{good1, nil, good2})
	if err == nil {
		t.Fatal("campaign with a failing event returned nil error")
	}
	if !errors.Is(err, ErrNoTargetEvents) {
		t.Errorf("error does not wrap the event failure: %v", err)
	}
	if res == nil {
		t.Fatal("campaign with a failing event dropped its partial results")
	}
	if len(res.Skipped) != 1 || res.Skipped[0].Event != "event[1]" {
		t.Errorf("Skipped = %+v, want one entry for event[1]", res.Skipped)
	}
	if !errors.Is(res.Skipped[0].Err, ErrNoTargetEvents) {
		t.Errorf("skip record error = %v", res.Skipped[0].Err)
	}
	for _, e := range []*hpc.Event{good1, good2} {
		if _, ok := res.PerEvent[e.Name]; !ok {
			t.Errorf("healthy event %s missing from partial results", e.Name)
		}
	}
	if res.CandidatesTried != 2*150 {
		t.Errorf("tried = %d, want %d", res.CandidatesTried, 2*150)
	}
}

// TestFuzzAllEventsFailing: when every event fails there are no partial
// results to report and Fuzz returns a wrapped error alone.
func TestFuzzAllEventsFailing(t *testing.T) {
	f, err := New(legalAMD(t), smallConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Fuzz([]*hpc.Event{nil, nil})
	if err == nil || res != nil {
		t.Fatalf("all-failing campaign = (%v, %v), want nil result and error", res, err)
	}
	if !errors.Is(err, ErrNoTargetEvents) {
		t.Errorf("error does not wrap the per-event failures: %v", err)
	}
}

// TestSignatureMemoIsPure: the cross-event screening memo must return
// exactly what recomputation would, and hit on the second request.
func TestSignatureMemoIsPure(t *testing.T) {
	legal := legalAMD(t)
	f1, err := New(legal, smallConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	f2, err := New(legal, smallConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	g := Gadget{Reset: legal[0], Trigger: legal[1]}
	ops := g.ops()
	sigA, err := f1.signature(g, ops[:])
	if err != nil {
		t.Fatal(err)
	}
	sigB, err := f1.signature(g, ops[:]) // memo hit
	if err != nil {
		t.Fatal(err)
	}
	sigC, err := f2.signature(g, ops[:]) // fresh fuzzer, recomputed
	if err != nil {
		t.Fatal(err)
	}
	for i := range sigA.total {
		if sigA.total[i] != sigB.total[i] || sigA.total[i] != sigC.total[i] ||
			sigA.cold[i] != sigC.cold[i] || sigA.warm[i] != sigC.warm[i] {
			t.Fatalf("signature not pure at signal %d", i)
		}
	}
	if _, ok := f1.memo.lookup(g.id()); !ok {
		t.Error("signature not cached under its gadget ID")
	}
}
