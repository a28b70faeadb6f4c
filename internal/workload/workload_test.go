package workload

import (
	"testing"
	"testing/quick"

	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/sev"
)

func TestLibrarySample(t *testing.T) {
	lib := DefaultLibrary(1)
	r := rng.New(2)
	for _, class := range []isa.Class{isa.ClassALU, isa.ClassLoad, isa.ClassStore,
		isa.ClassSSE, isa.ClassFlush, isa.ClassPrefetch, isa.ClassSerial} {
		v := lib.Sample(class, r)
		if v.Class != class {
			t.Errorf("Sample(%v) returned class %v", class, v.Class)
		}
	}
}

func TestLibraryFallback(t *testing.T) {
	lib := NewLibrary([]isa.Variant{{Mnemonic: "ADD", Class: isa.ClassALU, Uops: 1}})
	r := rng.New(3)
	v := lib.Sample(isa.ClassAVX, r)
	if v.Class != isa.ClassALU {
		t.Errorf("missing class fell back to %v, want ALU", v.Class)
	}
	empty := NewLibrary(nil)
	if v := empty.Sample(isa.ClassAVX, r); v.Class != isa.ClassNop {
		t.Errorf("empty library returned %v, want NOP", v.Class)
	}
}

func TestMixSampleProportions(t *testing.T) {
	m := Mix{isa.ClassALU: 3, isa.ClassLoad: 1}
	r := rng.New(4)
	counts := map[isa.Class]int{}
	const n = 40000
	for i := 0; i < n; i++ {
		counts[compileMix(m).sample(r)]++
	}
	aluFrac := float64(counts[isa.ClassALU]) / n
	if aluFrac < 0.72 || aluFrac > 0.78 {
		t.Errorf("ALU fraction = %v, want ~0.75", aluFrac)
	}
}

func TestMixSampleEmpty(t *testing.T) {
	if c := compileMix(Mix{}).sample(rng.New(1)); c != isa.ClassNop {
		t.Errorf("empty mix sampled %v", c)
	}
	if c := compileMix(Mix{isa.ClassALU: -1}).sample(rng.New(1)); c != isa.ClassNop {
		t.Errorf("all-negative mix sampled %v", c)
	}
}

func TestWebsites(t *testing.T) {
	sites := Websites()
	if len(sites) != 45 {
		t.Fatalf("site count = %d, want 45", len(sites))
	}
	seen := map[string]bool{}
	for _, s := range sites {
		if seen[s] {
			t.Fatalf("duplicate site %q", s)
		}
		seen[s] = true
	}
}

func TestWebsiteJobStructure(t *testing.T) {
	job := WebsiteJob("facebook.com", rng.New(1))
	if job.Label != "facebook.com" {
		t.Errorf("label = %q", job.Label)
	}
	if len(job.Phases) != 4 {
		t.Fatalf("phases = %d, want 4 (network/dom/js/render)", len(job.Phases))
	}
	if job.TotalInstructions() < 10000 {
		t.Errorf("total instructions = %d, too small", job.TotalInstructions())
	}
}

func TestWebsiteProfilesDiffer(t *testing.T) {
	a := WebsiteJob("google.com", rng.New(1))
	b := WebsiteJob("youtube.com", rng.New(1))
	if a.TotalInstructions() == b.TotalInstructions() {
		t.Error("two sites produced identical instruction totals")
	}
}

func TestWebsiteLoadVariation(t *testing.T) {
	// Repeated loads of the same site vary but stay near the profile.
	base := WebsiteJob("github.com", rng.New(1)).TotalInstructions()
	varied := 0
	for i := uint64(2); i < 12; i++ {
		ti := WebsiteJob("github.com", rng.New(i)).TotalInstructions()
		if ti != base {
			varied++
		}
		ratio := float64(ti) / float64(base)
		if ratio < 0.6 || ratio > 1.6 {
			t.Errorf("load %d total = %d, base %d: excessive variation", i, ti, base)
		}
	}
	if varied == 0 {
		t.Error("no variation across repeated loads")
	}
}

func TestKeystrokeJobBurstCount(t *testing.T) {
	for k := 0; k <= 9; k++ {
		job := KeystrokeJob(k, 300, rng.New(uint64(k)+1))
		bursts := 0
		for _, p := range job.Phases {
			if p.Name == "keystroke" {
				bursts++
			}
		}
		if bursts != k {
			t.Errorf("k=%d produced %d bursts", k, bursts)
		}
		if job.Label != KeystrokeLabel(k) {
			t.Errorf("label = %q", job.Label)
		}
	}
}

func TestKeystrokeJobNegativeAndDefaults(t *testing.T) {
	job := KeystrokeJob(-3, 0, rng.New(1))
	for _, p := range job.Phases {
		if p.Name == "keystroke" {
			t.Error("negative k produced keystroke bursts")
		}
	}
}

func TestModelZoo(t *testing.T) {
	zoo := ModelZoo()
	if len(zoo) != 30 {
		t.Fatalf("zoo size = %d, want 30", len(zoo))
	}
	seen := map[string]bool{}
	for _, m := range zoo {
		if seen[m.Name] {
			t.Fatalf("duplicate model %q", m.Name)
		}
		seen[m.Name] = true
		if len(m.Layers) < 5 {
			t.Errorf("%s has only %d layers", m.Name, len(m.Layers))
		}
		if m.Layers[len(m.Layers)-1].Type != LayerSoftmax {
			t.Errorf("%s does not end in softmax", m.Name)
		}
	}
}

func TestModelSequencesDistinct(t *testing.T) {
	zoo := ModelZoo()
	seen := map[string]string{}
	for _, m := range zoo {
		seq := m.SequenceString()
		if prev, dup := seen[seq]; dup {
			t.Errorf("models %s and %s share a layer sequence", prev, m.Name)
		}
		seen[seq] = m.Name
	}
}

func TestInferenceJobPhasesMatchLayers(t *testing.T) {
	zoo := ModelZoo()
	m := zoo[0]
	job := InferenceJob(m, rng.New(5))
	if len(job.Phases) != len(m.Layers) {
		t.Fatalf("phases = %d, layers = %d", len(job.Phases), len(m.Layers))
	}
	if job.Label != m.Name {
		t.Errorf("label = %q", job.Label)
	}
}

func TestLayerTypeString(t *testing.T) {
	if LayerConv.String() != "conv" || LayerSoftmax.String() != "softmax" {
		t.Error("layer names wrong")
	}
	if LayerType(99).String() == "" {
		t.Error("unknown layer type empty string")
	}
}

func TestRunnerExecutesJobToCompletion(t *testing.T) {
	w := sev.NewWorld(sev.DefaultConfig(20))
	vm, err := w.LaunchVM(sev.VMConfig{VCPUs: 1, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	lib := DefaultLibrary(1)
	runner := NewRunner("browser", lib, rng.New(21).Split("runner"))
	if err := vm.AddProcess(0, runner); err != nil {
		t.Fatal(err)
	}
	runner.Enqueue(WebsiteJob("google.com", rng.New(22)))
	for i := 0; i < 2000 && runner.Pending() > 0; i++ {
		w.Step()
	}
	if runner.Pending() != 0 {
		t.Fatal("job did not complete within 2000 ticks")
	}
	timings := runner.Timings()
	if len(timings) != 1 {
		t.Fatalf("timings = %d, want 1", len(timings))
	}
	if timings[0].Duration() < 5 {
		t.Errorf("job duration = %d ticks, implausibly fast", timings[0].Duration())
	}
	if timings[0].Label != "google.com" {
		t.Errorf("timing label = %q", timings[0].Label)
	}
}

func TestRunnerIdleActivity(t *testing.T) {
	w := sev.NewWorld(sev.DefaultConfig(23))
	vm, err := w.LaunchVM(sev.VMConfig{VCPUs: 1, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	lib := DefaultLibrary(1)
	runner := NewRunner("idle-browser", lib, rng.New(24).Split("runner"))
	if err := vm.AddProcess(0, runner); err != nil {
		t.Fatal(err)
	}
	w.Run(10)
	usage, err := vm.CPUUsage(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if usage <= 0 {
		t.Error("idle runner produced zero activity")
	}
	if usage > 0.1 {
		t.Errorf("idle usage = %v, want small", usage)
	}
}

func TestRunnerSequentialJobs(t *testing.T) {
	w := sev.NewWorld(sev.DefaultConfig(25))
	vm, err := w.LaunchVM(sev.VMConfig{VCPUs: 1, SEV: true})
	if err != nil {
		t.Fatal(err)
	}
	lib := DefaultLibrary(1)
	runner := NewRunner("browser", lib, rng.New(26).Split("runner"))
	if err := vm.AddProcess(0, runner); err != nil {
		t.Fatal(err)
	}
	r := rng.New(27)
	runner.Enqueue(KeystrokeJob(3, 50, r.Split("a")))
	runner.Enqueue(KeystrokeJob(5, 50, r.Split("b")))
	for i := 0; i < 5000 && runner.Pending() > 0; i++ {
		w.Step()
	}
	timings := runner.Timings()
	if len(timings) != 2 {
		t.Fatalf("completed %d jobs, want 2", len(timings))
	}
	if timings[0].EndTick > timings[1].StartTick {
		t.Error("jobs overlapped")
	}
}

func TestMixSampleAlwaysReturnsWeightedClass(t *testing.T) {
	// Property: every sampled class has positive weight in the mix.
	if err := quick.Check(func(seed uint64, w1, w2, w3 uint8) bool {
		m := Mix{
			isa.ClassALU:  float64(w1),
			isa.ClassLoad: float64(w2),
			isa.ClassSSE:  float64(w3),
		}
		var positive []isa.Class
		for c, w := range m {
			if w > 0 {
				positive = append(positive, c)
			}
		}
		r := rng.New(seed)
		for i := 0; i < 50; i++ {
			c := compileMix(m).sample(r)
			if len(positive) == 0 {
				return c == isa.ClassNop
			}
			ok := false
			for _, p := range positive {
				if c == p {
					ok = true
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestJobTotalsNonNegative(t *testing.T) {
	// Property: every generated job has positive phase budgets.
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		sites := Websites()
		job := WebsiteJob(sites[int(seed%uint64(len(sites)))], r)
		for _, p := range job.Phases {
			if p.Instructions <= 0 || p.Intensity <= 0 {
				return false
			}
		}
		return job.TotalInstructions() > 0
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestKeystrokeJobCoversWindow(t *testing.T) {
	// Property: idle+burst phases account for the whole window's idle
	// pacing (no negative gaps regardless of burst placement).
	if err := quick.Check(func(seed uint64, k uint8) bool {
		job := KeystrokeJob(int(k%10), 200, rng.New(seed))
		for _, p := range job.Phases {
			if p.Instructions < 0 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TotalInstructions sums the phase budgets.
func (j Job) TotalInstructions() int {
	var n int
	for _, p := range j.Phases {
		n += p.Instructions
	}
	return n
}
