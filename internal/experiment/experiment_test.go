package experiment

import (
	"strings"
	"testing"

	"github.com/repro/aegis/internal/hpc"
)

func TestTable1MatchesPaper(t *testing.T) {
	res := Table1()
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	want := map[string]int{
		"Intel Xeon E5-1650": 6166,
		"Intel Xeon E5-4617": 6172,
		"AMD EPYC 7252":      1903,
		"AMD EPYC 7313P":     1903,
	}
	for _, row := range res.Rows {
		if row.Events != want[row.Processor] {
			t.Errorf("%s events = %d, want %d", row.Processor, row.Events, want[row.Processor])
		}
	}
	// AMD family: identical catalogs (paper: 0 different events).
	if res.Rows[3].DifferentWithinFamily != 0 {
		t.Errorf("AMD family diff = %d, want 0", res.Rows[3].DifferentWithinFamily)
	}
	// Intel family: a small number of differing events (paper: 14).
	if d := res.Rows[1].DifferentWithinFamily; d < 14 || d > 40 {
		t.Errorf("Intel family diff = %d, want small non-zero", d)
	}
	if !strings.Contains(res.Render(), "6166") {
		t.Error("render missing event count")
	}
}

func TestTable2Shape(t *testing.T) {
	res, err := Table2(TestScale(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		// Paper Table II brackets: H and HC survive fully; S and O vanish.
		if row.RemainingShare[hpc.TypeHardware] < 0.9 {
			t.Errorf("%s: hardware survival = %v, want ~1", row.Processor, row.RemainingShare[hpc.TypeHardware])
		}
		if row.RemainingShare[hpc.TypeSoftware] != 0 || row.RemainingShare[hpc.TypeOther] != 0 {
			t.Errorf("%s: software/other events survived warm-up", row.Processor)
		}
		if row.RemainingShare[hpc.TypeTracepoint] > 0.12 {
			t.Errorf("%s: tracepoint survival = %v, want small", row.Processor, row.RemainingShare[hpc.TypeTracepoint])
		}
		if row.RemainingTotal == 0 {
			t.Errorf("%s: nothing survived", row.Processor)
		}
	}
	// AMD is tracepoint-dominated; Intel is "other"-dominated.
	intel, amd := res.Rows[0], res.Rows[1]
	if intel.Share[hpc.TypeOther] < 0.5 {
		t.Errorf("intel other share = %v", intel.Share[hpc.TypeOther])
	}
	if amd.Share[hpc.TypeTracepoint] < 0.8 {
		t.Errorf("amd tracepoint share = %v", amd.Share[hpc.TypeTracepoint])
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

func TestTable3Shape(t *testing.T) {
	res, err := Table3(TestScale(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		// Paper Table III: generation+execution dominates; cleanup and
		// filtering are fast.
		if row.GenerateExec <= row.Filtering {
			t.Errorf("%s: gen+exec %v not above filtering %v", row.Processor, row.GenerateExec, row.Filtering)
		}
		if row.Throughput <= 0 {
			t.Errorf("%s: throughput %v", row.Processor, row.Throughput)
		}
		if row.GadgetsTried == 0 {
			t.Errorf("%s: no gadgets tried", row.Processor)
		}
		if row.GadgetsMeasured == 0 || row.GadgetsMeasured >= row.GadgetsTried {
			t.Errorf("%s: %d of %d sampled gadgets measured, want some but not all",
				row.Processor, row.GadgetsMeasured, row.GadgetsTried)
		}
	}
	// Legal instruction counts match the paper's cleanup results.
	if res.Rows[0].LegalVariants != 3386 || res.Rows[1].LegalVariants != 3407 {
		t.Errorf("legal variants = %d/%d, want 3386/3407",
			res.Rows[0].LegalVariants, res.Rows[1].LegalVariants)
	}
}

func TestFigure3Shape(t *testing.T) {
	sc := TestScale(3)
	res, err := Figure3(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Event != "DATA_CACHE_REFILLS_FROM_SYSTEM" {
		t.Errorf("event = %s", res.Event)
	}
	// Fig. 3b: near-Gaussian event values.
	if res.QQCorr < 0.9 {
		t.Errorf("QQ correlation = %v, want > 0.9", res.QQCorr)
	}
	if len(res.PerSite) < 2 {
		t.Fatalf("per-site fits = %d", len(res.PerSite))
	}
	// Fig. 3c: distinct sites have distinct means.
	mus := map[string]bool{}
	for _, c := range res.PerSite {
		mus[f2(c.Dist.Mu)] = true
	}
	if len(mus) < 2 {
		t.Error("all sites produced identical Gaussian means")
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

func TestAblationSetCover(t *testing.T) {
	res, err := AblationSetCover(TestScale(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.CoverSize == 0 {
		t.Fatal("empty cover")
	}
	// The whole point of the cover: fewer gadgets than events with
	// confirmed gadgets.
	if res.CoverSize > res.PerEventCount {
		t.Errorf("cover %d exceeds per-event %d", res.CoverSize, res.PerEventCount)
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

func TestAblationConfirmation(t *testing.T) {
	res, err := AblationConfirmation(TestScale(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Unconfirmed == 0 {
		t.Skip("no raw candidates at this scale")
	}
	if res.Confirmed > res.Unconfirmed {
		t.Errorf("confirmation added gadgets: %d > %d", res.Confirmed, res.Unconfirmed)
	}
	// The confirmation mechanisms must reject something: unconfirmed
	// screening keeps noise-induced false positives.
	if res.FalsePositiveRate() <= 0 {
		t.Errorf("false positive rate = %v, want > 0", res.FalsePositiveRate())
	}
}

func TestAblationPCA(t *testing.T) {
	res, err := AblationPCA(TestScale(6))
	if err != nil {
		t.Fatal(err)
	}
	if res.TopOverlap < 0 || res.TopOverlap > 1 {
		t.Errorf("overlap = %v", res.TopOverlap)
	}
	if res.PCAMeanMI <= 0 {
		t.Errorf("PCA mean MI = %v", res.PCAMeanMI)
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

func TestFigure9cMIShrinksWithNoise(t *testing.T) {
	sc := TestScale(7)
	sc.Sites = 3
	sc.TracesPerSecret = 3
	res, err := Figure9c(sc, []float64{0.125, 1, 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.CleanSelfMI <= 0 {
		t.Fatalf("clean self-MI = %v", res.CleanSelfMI)
	}
	for _, mech := range []MechanismKind{MechLaplace, MechDStar} {
		lo := res.MI(mech, 0.125)
		hi := res.MI(mech, 8)
		if lo < 0 || hi < 0 {
			t.Fatalf("%s: missing points", mech)
		}
		// Smaller epsilon => more noise => less residual MI.
		if lo >= hi {
			t.Errorf("%s: MI at eps=0.125 (%v) not below eps=8 (%v)", mech, lo, hi)
		}
		// All noised MI below the clean self-MI.
		if hi >= res.CleanSelfMI {
			t.Errorf("%s: noised MI %v not below clean self-MI %v", mech, hi, res.CleanSelfMI)
		}
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

func TestEpsilonSweeps(t *testing.T) {
	eps := Epsilons()
	if len(eps) != 7 || eps[0] != 0.125 || eps[6] != 8 {
		t.Errorf("epsilons = %v, want 2^-3..2^3", eps)
	}
	adaptive := EpsilonsAdaptive()
	if adaptive[0] >= eps[0] {
		t.Error("adaptive sweep must extend below the standard sweep")
	}
}

func TestTableHelper(t *testing.T) {
	out := table([]string{"a", "b"}, [][]string{{"1", "2"}})
	if !strings.Contains(out, "a") || !strings.Contains(out, "1") {
		t.Errorf("table output %q", out)
	}
}
