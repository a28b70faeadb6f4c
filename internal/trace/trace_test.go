package trace

import (
	"errors"
	"math"
	"testing"

	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/sev"
	"github.com/repro/aegis/internal/workload"
)

func TestTraceAccessors(t *testing.T) {
	tr := Trace{Label: "x", Data: [][]float64{{1, 2}, {3, 4}, {5, 6}}}
	if tr.Ticks() != 3 || tr.Events() != 2 {
		t.Fatalf("dims = %dx%d", tr.Ticks(), tr.Events())
	}
	flat := tr.Flatten()
	want := []float64{1, 3, 5, 2, 4, 6} // channel-major
	for i := range want {
		if flat[i] != want[i] {
			t.Fatalf("flatten = %v, want %v", flat, want)
		}
	}
	ch := tr.Channel(1)
	if ch[0] != 2 || ch[2] != 6 {
		t.Errorf("channel = %v", ch)
	}
	if channelTotal(tr, 0) != 9 {
		t.Errorf("total = %v, want 9", channelTotal(tr, 0))
	}
}

func TestTraceClone(t *testing.T) {
	tr := Trace{Label: "x", Data: [][]float64{{1}}}
	cp := tr.Clone()
	cp.Data[0][0] = 99
	if tr.Data[0][0] != 1 {
		t.Error("clone shares backing data")
	}
}

func TestNewCollectorValidation(t *testing.T) {
	w := sev.NewWorld(sev.DefaultConfig(1))
	core, err := w.Core(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCollector(core, nil, nil); !errors.Is(err, ErrNoEvents) {
		t.Errorf("no events error = %v", err)
	}
	cat := hpc.NewAMDEpyc7252Catalog(1)
	events := make([]*hpc.Event, 5)
	for i := range events {
		events[i] = cat.Events[i]
	}
	if _, err := NewCollector(core, events, nil); !errors.Is(err, ErrTooManyEvents) {
		t.Errorf("too many events error = %v", err)
	}
}

// buildVictim launches a VM running a website load and returns the world,
// collector, and the runner.
func buildVictim(t *testing.T, seed uint64, site string) (*sev.World, *Collector, *workload.Runner) {
	t.Helper()
	w := sev.NewWorld(sev.DefaultConfig(seed))
	vm, err := w.LaunchVM(sev.VMConfig{VCPUs: 1, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	lib := workload.DefaultLibrary(1)
	r := rng.New(seed).Split("victim")
	runner := workload.NewRunner("browser", lib, r.Split("runner"))
	if err := vm.AddProcess(0, runner); err != nil {
		t.Fatal(err)
	}
	runner.Enqueue(workload.WebsiteJob(site, r.Split("load")))

	coreIdx, err := vm.PhysicalCore(0)
	if err != nil {
		t.Fatal(err)
	}
	core, err := w.Core(coreIdx)
	if err != nil {
		t.Fatal(err)
	}
	cat := hpc.NewAMDEpyc7252Catalog(1)
	events := []*hpc.Event{
		cat.MustByName("RETIRED_UOPS"),
		cat.MustByName("LS_DISPATCH"),
		cat.MustByName("MAB_ALLOCATION_BY_PIPE"),
		cat.MustByName("DATA_CACHE_REFILLS_FROM_SYSTEM"),
	}
	col, err := NewCollector(core, events, r.Split("noise"))
	if err != nil {
		t.Fatal(err)
	}
	return w, col, runner
}

func TestCollectDuring(t *testing.T) {
	w, col, _ := buildVictim(t, 2, "google.com")
	tr, err := CollectDuring(w, col, 50, "google.com")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Ticks() != 50 || tr.Events() != 4 {
		t.Fatalf("trace dims = %dx%d, want 50x4", tr.Ticks(), tr.Events())
	}
	if channelTotal(tr, 0) == 0 {
		t.Error("RETIRED_UOPS channel is all zero during a page load")
	}
	if col.events[0].Name != "RETIRED_UOPS" || col.events[3].Name != "DATA_CACHE_REFILLS_FROM_SYSTEM" {
		t.Errorf("events = %s, %s", col.events[0].Name, col.events[3].Name)
	}
}

func TestTracesDistinguishSites(t *testing.T) {
	// Different sites must produce visibly different leakage totals on at
	// least one channel; identical-site repeats should be closer together.
	total := func(seed uint64, site string) float64 {
		w, col, _ := buildVictim(t, seed, site)
		tr, err := CollectDuring(w, col, 80, site)
		if err != nil {
			t.Fatal(err)
		}
		return channelTotal(tr, 0)
	}
	g1 := total(10, "google.com")
	g2 := total(11, "google.com")
	y1 := total(10, "youtube.com")
	intra := math.Abs(g1 - g2)
	inter := math.Abs(g1 - y1)
	if inter <= intra {
		t.Logf("warning: inter-site gap %v <= intra-site gap %v on this channel", inter, intra)
	}
	if g1 == y1 {
		t.Error("two different sites produced identical totals")
	}
}

func testDataset() *Dataset {
	d := &Dataset{EventNames: []string{"A"}}
	for c := 0; c < 3; c++ {
		for i := 0; i < 10; i++ {
			d.Add(Trace{
				Label: string(rune('a' + c)),
				Data:  [][]float64{{float64(c*100 + i)}},
			})
		}
	}
	return d
}

func TestDatasetSplitStratified(t *testing.T) {
	d := testDataset()
	train, val := d.Split(0.7, rng.New(5))
	if train.Len()+val.Len() != d.Len() {
		t.Fatalf("split sizes %d+%d != %d", train.Len(), val.Len(), d.Len())
	}
	for _, sub := range []*Dataset{train, val} {
		if got := len(sub.Classes()); got != 3 {
			t.Errorf("subset has %d classes, want 3 (stratified)", got)
		}
	}
	if train.Len() != 21 {
		t.Errorf("train size = %d, want 21", train.Len())
	}
}

func TestDatasetClassesSorted(t *testing.T) {
	d := &Dataset{}
	d.Add(Trace{Label: "z"})
	d.Add(Trace{Label: "a"})
	d.Add(Trace{Label: "z"})
	cls := d.Classes()
	if len(cls) != 2 || cls[0] != "a" || cls[1] != "z" {
		t.Errorf("classes = %v", cls)
	}
}

func TestNormalizer(t *testing.T) {
	d := &Dataset{}
	d.Add(Trace{Label: "x", Data: [][]float64{{0, 10}, {2, 20}, {4, 30}}})
	n, err := FitNormalizer(d)
	if err != nil {
		t.Fatal(err)
	}
	if n.Mean[0] != 2 || n.Mean[1] != 20 {
		t.Errorf("means = %v", n.Mean)
	}
	for i := range d.Traces {
		n.Apply(&d.Traces[i])
	}
	// After normalisation, channel means are 0.
	var sum0, sum1 float64
	for _, row := range d.Traces[0].Data {
		sum0 += row[0]
		sum1 += row[1]
	}
	if math.Abs(sum0) > 1e-9 || math.Abs(sum1) > 1e-9 {
		t.Errorf("normalized sums = %v, %v", sum0, sum1)
	}
}

func TestNormalizerConstantChannel(t *testing.T) {
	d := &Dataset{}
	d.Add(Trace{Label: "x", Data: [][]float64{{5}, {5}}})
	n, err := FitNormalizer(d)
	if err != nil {
		t.Fatal(err)
	}
	if n.Std[0] != 1 {
		t.Errorf("constant channel std = %v, want fallback 1", n.Std[0])
	}
}

func TestFitNormalizerEmpty(t *testing.T) {
	if _, err := FitNormalizer(&Dataset{}); !errors.Is(err, ErrEmptyTrace) {
		t.Errorf("empty dataset error = %v", err)
	}
}

func TestLabelIndex(t *testing.T) {
	li := NewLabelIndex([]string{"b", "a", "b", "c"})
	if li.Len() != 3 {
		t.Fatalf("len = %d", li.Len())
	}
	if li.Index("a") != 0 || li.Index("c") != 2 {
		t.Errorf("indices wrong: a=%d c=%d", li.Index("a"), li.Index("c"))
	}
	if li.Index("zzz") != -1 {
		t.Error("unknown label index != -1")
	}
	if li.Name(1) != "b" {
		t.Errorf("Name(1) = %q", li.Name(1))
	}
	if li.Name(9) != "" {
		t.Error("out of range name not empty")
	}
}

// channelTotal sums channel e of a trace.
func channelTotal(tr Trace, e int) float64 {
	var sum float64
	for _, v := range tr.Channel(e) {
		sum += v
	}
	return sum
}
