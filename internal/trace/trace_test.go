package trace

import (
	"errors"
	"math"
	"testing"

	"github.com/repro/aegis/internal/hpc"
	"github.com/repro/aegis/internal/microarch"
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

func TestProjectValidation(t *testing.T) {
	if _, err := Project(nil, nil, nil, "x"); !errors.Is(err, ErrNoEvents) {
		t.Errorf("no events error = %v", err)
	}
	cat := hpc.NewAMDEpyc7252Catalog(1)
	events := make([]*hpc.Event, 5)
	for i := range events {
		events[i] = cat.Events[i]
	}
	if _, err := Project(nil, events, nil, "x"); !errors.Is(err, ErrTooManyEvents) {
		t.Errorf("too many events error = %v", err)
	}
}

// attackEvents are the four events the paper's attacks monitor.
func attackEvents() []*hpc.Event {
	cat := hpc.NewAMDEpyc7252Catalog(1)
	return []*hpc.Event{
		cat.MustByName("RETIRED_UOPS"),
		cat.MustByName("LS_DISPATCH"),
		cat.MustByName("MAB_ALLOCATION_BY_PIPE"),
		cat.MustByName("DATA_CACHE_REFILLS_FROM_SYSTEM"),
	}
}

// buildVictim launches a VM running a website load and returns the world,
// the core backing its vCPU, and the monitor's noise stream.
func buildVictim(t *testing.T, seed uint64, site string) (*sev.World, *microarch.Core, *rng.Source) {
	t.Helper()
	r := rng.New(seed).Split("victim")
	runner := workload.NewRunner("browser", workload.DefaultLibrary(1), r.Split("runner"))
	runner.Enqueue(workload.WebsiteJob(site, r.Split("load")))
	g, err := sev.NewGuest(sev.GuestConfig{
		World: sev.DefaultConfig(seed), VM: sev.VMConfig{VCPUs: 1, SEV: true}, App: runner,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g.World, g.Core, r.Split("noise")
}

func TestRecordProject(t *testing.T) {
	w, core, noise := buildVictim(t, 2, "google.com")
	raw := Record(w, core, 50)
	if len(raw) != 50 || len(raw[0]) != microarch.NumSignals {
		t.Fatalf("recording dims = %dx%d, want 50x%d", len(raw), len(raw[0]), microarch.NumSignals)
	}
	events := attackEvents()
	tr, err := Project(raw, events, noise, "google.com")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Ticks() != 50 || tr.Events() != 4 || tr.Label != "google.com" {
		t.Fatalf("trace %q dims = %dx%d, want google.com 50x4", tr.Label, tr.Ticks(), tr.Events())
	}
	if channelTotal(tr, 0) == 0 {
		t.Error("RETIRED_UOPS channel is all zero during a page load")
	}
	// Channels follow register order: channel i of an exact projection is
	// event i projected alone.
	exact, err := Project(raw, events, nil, "google.com")
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range events {
		alone, err := Project(raw, []*hpc.Event{e}, nil, "google.com")
		if err != nil {
			t.Fatal(err)
		}
		for tick := range raw {
			if exact.Data[tick][i] != alone.Data[tick][0] {
				t.Fatalf("tick %d channel %d = %v, %s alone = %v", tick, i, exact.Data[tick][i], e.Name, alone.Data[tick][0])
			}
		}
	}
}

func TestTracesDistinguishSites(t *testing.T) {
	// Different sites must produce visibly different leakage totals on at
	// least one channel; identical-site repeats should be closer together.
	total := func(seed uint64, site string) float64 {
		w, core, noise := buildVictim(t, seed, site)
		tr, err := Project(Record(w, core, 80), attackEvents(), noise, site)
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
