package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/microarch"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/sev"
)

// decodePools decodes a post-cleanup legal variant list into class pools,
// each in list order.
func decodePools(legal []isa.Variant) (pools [isa.ClassInvalid + 1][]microarch.Op) {
	for i := range legal {
		if c := legal[i].Class; c > 0 && c <= isa.ClassInvalid {
			pools[c] = append(pools[c], microarch.Decode(&legal[i]))
		}
	}
	return pools
}

// newLibrary builds a library of at most 256 variants, each decoded into
// its own table entry.
func newLibrary(legal []isa.Variant) *Library {
	l := &Library{ops: new(opTable)}
	for i := range legal {
		if c := legal[i].Class; c > 0 && c <= isa.ClassInvalid {
			l.ops[i] = microarch.Decode(&legal[i])
			l.byClass[c] = append(l.byClass[c], uint8(i))
		}
	}
	return l
}

// pool returns l's pool of class c as decoded ops.
func (l *Library) pool(c int) []microarch.Op {
	ops := make([]microarch.Op, len(l.byClass[c]))
	for i, idx := range l.byClass[c] {
		ops[i] = l.ops[idx]
	}
	return ops
}

// next draws one op, as fill does.
func (s *mixSampler) next(r *rng.Source) microarch.Op {
	var op [1]microarch.Op
	s.fill(op[:], r)
	return op[0]
}

// drawOp is the per-class draw a compiled mix makes: one op of the
// class's bound pool. A sampler with no positive weight draws no class,
// so one holding only that pool makes exactly that draw.
func drawOp(lib *Library, class isa.Class, r *rng.Source) microarch.Op {
	s := mixSampler{pools: [][]uint8{lib.bindPool(class)}, ops: lib.ops}
	return s.next(r)
}

func TestLibrarySample(t *testing.T) {
	lib := DefaultLibrary(1)
	r := rng.New(2)
	for _, class := range []isa.Class{isa.ClassALU, isa.ClassLoad, isa.ClassStore,
		isa.ClassSSE, isa.ClassFlush, isa.ClassPrefetch, isa.ClassSerial} {
		op := drawOp(lib, class, r)
		if op.Class() != class {
			t.Errorf("drawOp(%v) returned class %v", class, op.Class())
		}
	}
}

// TestLibraryFallback pins bindPool's fallback order: the requested
// class, then ALU, then NOP, for absent classes and for values outside
// the isa enumeration, none of which may panic.
func TestLibraryFallback(t *testing.T) {
	add := isa.Variant{Mnemonic: "ADD", Class: isa.ClassALU, Uops: 1}
	mov := isa.Variant{Mnemonic: "MOV", Class: isa.ClassLoad, Uops: 1, MemReads: 1}
	withALU := newLibrary([]isa.Variant{add, mov})
	noALU := newLibrary([]isa.Variant{mov})
	empty := newLibrary(nil)
	for _, tc := range []struct {
		name  string
		lib   *Library
		class isa.Class
		want  isa.Class
	}{
		{"present", withALU, isa.ClassLoad, isa.ClassLoad},
		{"absent", withALU, isa.ClassAVX, isa.ClassALU},
		{"zero", withALU, 0, isa.ClassALU},
		{"negative", withALU, -1, isa.ClassALU},
		{"past-invalid", withALU, isa.ClassInvalid + 1, isa.ClassALU},
		{"absent-no-alu", noALU, isa.ClassAVX, isa.ClassNop},
		{"zero-no-alu", noALU, 0, isa.ClassNop},
		{"negative-no-alu", noALU, -1 << 40, isa.ClassNop},
		{"past-invalid-no-alu", noALU, isa.ClassInvalid + 1, isa.ClassNop},
		{"empty", empty, isa.ClassAVX, isa.ClassNop},
	} {
		if op := drawOp(tc.lib, tc.class, rng.New(3)); op.Class() != tc.want {
			t.Errorf("%s: drawOp(%d) = %v op, want %v", tc.name, int(tc.class), op.Class(), tc.want)
		}
	}
}

// TestDefaultLibraryMatchesSpec checks the op library against its
// definition: every class pool of DefaultLibrary(seed) is the decoded
// legal variants of the full AMD specification at that seed, in spec
// order. It covers seeds 0..199 and the library seeds daemon.Attach draws
// for the daemontest scenarios' tenants (the second draw of the tenant's
// rng.NewStream(cfg.Seed, "daemon", name)).
func TestDefaultLibraryMatchesSpec(t *testing.T) {
	var seeds []uint64
	for s := uint64(0); s < 200; s++ {
		seeds = append(seeds, s)
	}
	tenantSeed := func(cfgSeed uint64, name string) uint64 {
		s := rng.NewStream(cfgSeed, "daemon", name)
		s.Uint64() // the tenant's world seed
		return s.Uint64()
	}
	for _, sc := range []struct {
		seed    uint64
		tenants int
		late    bool
	}{{42, 8, true}, {99, 8, true}, {7, 120, false}, {1234, 12, false}} {
		for i := 0; i < sc.tenants; i++ {
			seeds = append(seeds, tenantSeed(sc.seed, fmt.Sprintf("t%03d", i)))
		}
		if sc.late {
			seeds = append(seeds, tenantSeed(sc.seed, "late"))
		}
	}
	for _, seed := range seeds {
		want := decodePools(isa.Cleanup(isa.SpecAMDEpyc(seed), isa.AMDEpycFeatures()).Legal)
		got := DefaultLibrary(seed)
		for c := range want {
			if pool := got.pool(c); !slices.Equal(pool, want[c]) {
				t.Fatalf("seed %d: %v pool differs from the decoded spec (%d ops, want %d)",
					seed, isa.Class(c), len(pool), len(want[c]))
			}
		}
	}
}

// TestOpTableFitsByteIndex checks the table every DefaultLibrary indexes:
// its entries in use fit a uint8 index and are distinct, and every
// library index points at one of them.
func TestOpTableFitsByteIndex(t *testing.T) {
	doc := amdDocumented
	if doc.distinct > len(doc.ops) {
		t.Fatalf("%d distinct ops, a uint8 indexes %d", doc.distinct, len(doc.ops))
	}
	seen := map[microarch.Op]bool{}
	for _, op := range doc.ops[:doc.distinct] {
		if seen[op] {
			t.Fatalf("op %#x is in the table twice", uint64(op))
		}
		seen[op] = true
	}
	for c, pool := range DefaultLibrary(1).byClass {
		for _, i := range pool {
			if int(i) >= doc.distinct {
				t.Fatalf("%v pool indexes entry %d of %d", isa.Class(c), i, doc.distinct)
			}
		}
	}
}

// TestLibrarySampleStreamPinned hashes 100k per-class draws (a bound
// pool's draw, as a compiled mix makes it) per library seed, cycling
// through every class from -1 to one past ClassInvalid, so the ALU
// fallback (non-positive, past-invalid and absent classes) is drawn too.
// Any change to a pool's contents, order or length, or to the index a
// draw takes, moves a digest.
func TestLibrarySampleStreamPinned(t *testing.T) {
	want := map[uint64]string{
		1:  "819281a943a7532d",
		2:  "9d90ef8303087268",
		99: "8bb137f24c605489",
	}
	for _, seed := range []uint64{1, 2, 99} {
		lib := DefaultLibrary(seed)
		r := rng.New(seed).Split("draws")
		h := sha256.New()
		var buf [8]byte
		for i := 0; i < 100000; i++ {
			class := isa.Class(i%int(isa.ClassInvalid+3) - 1)
			binary.LittleEndian.PutUint64(buf[:], uint64(drawOp(lib, class, r)))
			h.Write(buf[:])
		}
		if got := hex.EncodeToString(h.Sum(nil))[:16]; got != want[seed] {
			t.Errorf("seed %d: draw digest %s, want %s", seed, got, want[seed])
		}
	}
}

func TestMixSampleProportions(t *testing.T) {
	var s mixSampler
	s.compile(Mix{isa.ClassALU: 3, isa.ClassLoad: 1}, DefaultLibrary(1))
	r := rng.New(4)
	counts := map[isa.Class]int{}
	const n = 40000
	for i := 0; i < n; i++ {
		counts[s.next(r).Class()]++
	}
	aluFrac := float64(counts[isa.ClassALU]) / n
	if aluFrac < 0.72 || aluFrac > 0.78 {
		t.Errorf("ALU fraction = %v, want ~0.75", aluFrac)
	}
}

func TestMixSampleEmpty(t *testing.T) {
	lib := DefaultLibrary(1)
	for _, m := range []Mix{{}, {isa.ClassALU: -1}} {
		var s mixSampler
		s.compile(m, lib)
		if c := s.next(rng.New(1)).Class(); c != isa.ClassNop {
			t.Errorf("mix %v drew a %v op, want NOP", m, c)
		}
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

// TestWebsiteAppJobMembership checks that WebsiteApp.Job builds a job for
// exactly its secrets: every site of the full list when Sites is nil, and
// only the listed sites otherwise. It also checks that the default list
// is not shared: a caller editing the Websites copy changes neither.
func TestWebsiteAppJobMembership(t *testing.T) {
	all := Websites()
	all[0] = "edited.example"
	for _, tc := range []struct {
		app *WebsiteApp
		in  []string
		out []string
	}{
		{&WebsiteApp{}, Websites(), []string{"edited.example", "", "GOOGLE.COM"}},
		{&WebsiteApp{Sites: []string{"bing.com", "cnn.com"}}, []string{"bing.com", "cnn.com"}, []string{"google.com", "tumblr.com"}},
		{&WebsiteApp{Sites: []string{}}, nil, []string{"google.com"}},
	} {
		for _, site := range tc.in {
			job, err := tc.app.Job(site, rng.New(1))
			if err != nil || job.Label != site {
				t.Errorf("%v: Job(%q) = %q, %v; want its page load", tc.app.Sites, site, job.Label, err)
			}
		}
		for _, site := range tc.out {
			if _, err := tc.app.Job(site, rng.New(1)); err == nil {
				t.Errorf("%v: Job(%q) built a job for a site outside the secrets", tc.app.Sites, site)
			}
		}
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

// TestDNNAppArchSharesZoo resolves models on fresh apps: the full zoo is
// built once and shared, so a lookup allocates nothing, and an app with
// its own Models still resolves only those.
func TestDNNAppArchSharesZoo(t *testing.T) {
	var warm DNNApp
	if _, err := warm.Arch("resnetsim-3"); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		var a DNNApp
		if m, err := a.Arch("resnetsim-3"); err != nil || m.Name != "resnetsim-3" {
			t.Fatalf("Arch = %v, %v", m.Name, err)
		}
	})
	if allocs != 0 {
		t.Errorf("Arch on a fresh DNNApp allocates %v times, want 0", allocs)
	}
	if got := (&DNNApp{}).Secrets(); len(got) != 30 || got[0] != ModelZoo()[0].Name {
		t.Errorf("Secrets = %v", got)
	}
	own := DNNApp{Models: ModelZoo()[:2]}
	if _, err := own.Arch("resnetsim-3"); err == nil {
		t.Error("an app with its own Models resolved a model outside them")
	}
	if m, err := own.Arch(ModelZoo()[1].Name); err != nil || len(m.Layers) == 0 {
		t.Errorf("own-model lookup = %+v, %v", m, err)
	}
}

func TestModelSequencesDistinct(t *testing.T) {
	zoo := ModelZoo()
	seen := map[string]string{}
	for _, m := range zoo {
		seq := fmt.Sprint(m.LayerSequence())
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
	if n := runner.Completed(); n != 1 {
		t.Fatalf("completed %d jobs, want 1", n)
	}
	if d := runner.JobTicks(); d < 5 {
		t.Errorf("job duration = %d ticks, implausibly fast", d)
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
	usage, err := vm.CPUUsage(0)
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
	ticks := 0
	for ; ticks < 5000 && runner.Pending() > 0; ticks++ {
		w.Step()
		if n, want := runner.Completed(), 2-runner.Pending(); n != want {
			t.Fatalf("tick %d: Completed() = %d, want %d, one per job left the queue", ticks, n, want)
		}
	}
	if n := runner.Completed(); n != 2 {
		t.Fatalf("completed %d jobs, want 2", n)
	}
	// Each job spans its first to its last tick, so two jobs run one
	// after the other span at most the ticks stepped.
	if d := runner.JobTicks(); d < 2 || d > int64(ticks) {
		t.Errorf("jobs span %d ticks in %d stepped: they overlapped or took none", d, ticks)
	}
}

func TestMixSampleAlwaysReturnsWeightedClass(t *testing.T) {
	// Property: every drawn op's class has positive weight in the mix.
	lib := DefaultLibrary(1)
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
		var s mixSampler
		s.compile(m, lib)
		for i := 0; i < 50; i++ {
			c := s.next(r).Class()
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

// scanClass is the class sampler as a weight scan, kept as the reference
// the breakpoint sampler is checked against: the classes in ascending
// order, the 53-bit draw k scaled to k/2⁵³ of the positive total, and the
// first class whose weight the running remainder falls below.
func scanClass(m Mix, k uint64) isa.Class {
	var classes []isa.Class
	for c := range m {
		classes = append(classes, c)
	}
	slices.Sort(classes)
	total := 0.0
	for _, c := range classes {
		if w := m[c]; w > 0 {
			total += w
		}
	}
	if total == 0 {
		return isa.ClassNop
	}
	x := float64(k) / (1 << 53) * total
	for _, c := range classes {
		w := m[c]
		if w <= 0 {
			continue
		}
		if x < w {
			return c
		}
		x -= w
	}
	return classes[len(classes)-1]
}

// samplerMatchesScan fails t unless the sampler compiled from m picks
// scanClass's class at the first and last draw and at every breakpoint b
// and its neighbours b-1 and b+1.
func samplerMatchesScan(t *testing.T, name string, m Mix) {
	t.Helper()
	s := compileMix(m)
	ks := []uint64{0, drawCount - 1}
	for _, b := range s.breaks {
		ks = append(ks, b-1, b, b+1)
	}
	for _, k := range ks {
		if k >= drawCount {
			continue
		}
		got := isa.ClassNop
		if s.total != 0 {
			got = s.classes[pick(s.breaks, k)]
		}
		if want := scanClass(m, k); got != want {
			t.Fatalf("%s %v: draw %#x picks %v, scan picks %v (breaks %#x)", name, m, k, got, want, s.breaks)
		}
	}
}

// TestMixSamplerMatchesScan checks the breakpoint sampler against the
// weight scan on every mix an application job or an idle runner draws
// from, at each breakpoint and the draws on either side of it.
func TestMixSamplerMatchesScan(t *testing.T) {
	samplerMatchesScan(t, "idle", idleMix)
	apps := []App{&WebsiteApp{}, &KeystrokeApp{}, &DNNApp{}, &CryptoApp{}}
	mixes := 0
	for _, app := range apps {
		for _, secret := range app.Secrets() {
			job, err := app.Job(secret, rng.New(3).Split(secret))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range job.Phases {
				samplerMatchesScan(t, app.Name()+"/"+secret+"/"+p.Name, p.Mix)
				mixes++
			}
		}
	}
	if mixes < 100 {
		t.Fatalf("checked only %d phase mixes", mixes)
	}
}

// TestMixSamplerDrawStream checks that a sampler recompiled in place for
// a new mix and library draws exactly as a freshly compiled one, and that
// an empty mix consumes no class draw.
func TestMixSamplerDrawStream(t *testing.T) {
	a := Mix{isa.ClassALU: 3, isa.ClassLoad: 1, isa.ClassBranch: 2}
	b := Mix{isa.ClassMul: 4, isa.ClassDiv: 1.5, isa.ClassALU: 2, isa.ClassStore: 0}
	libs := []*Library{DefaultLibrary(1), DefaultLibrary(2), classesOnly}
	var reused mixSampler
	r1, r2 := rng.New(8), rng.New(8)
	for i, m := range []Mix{a, b, {}, a} {
		lib := libs[i%len(libs)]
		reused.compile(m, lib)
		var fresh mixSampler
		fresh.compile(m, lib)
		for i := 0; i < 1000; i++ {
			if g, w := reused.next(r1), fresh.next(r2); g != w {
				t.Fatalf("%v draw %d: recompiled sampler draws %#x, fresh %#x", m, i, uint64(g), uint64(w))
			}
		}
	}
	if r1.Uint64() != r2.Uint64() {
		t.Fatal("the samplers consumed different numbers of draws")
	}
}

// FuzzMixSampler checks the breakpoint sampler against the weight scan on
// arbitrary mixes: each 9-byte record is a class (a signed byte, so
// classes outside the enumeration occur) and a weight's raw float64 bits,
// so zero, negative, subnormal, huge, NaN and infinite weights all occur.
// k is one more draw to check besides the breakpoints.
func FuzzMixSampler(f *testing.F) {
	rec := func(c int8, w float64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{byte(c)}, math.Float64bits(w))
	}
	f.Add(slices.Concat(rec(1, 3), rec(4, 1)), uint64(0))
	f.Add(slices.Concat(rec(1, 0), rec(2, -1), rec(3, 2)), uint64(1<<52))
	f.Add(slices.Concat(rec(1, math.NaN()), rec(5, math.Inf(1)), rec(7, 1)), uint64(1<<53-1))
	f.Add(slices.Concat(rec(-3, math.Inf(-1)), rec(9, 1e308), rec(10, 1e308), rec(40, 5e-324)), uint64(12345))
	f.Add(slices.Concat(rec(2, 1e-300), rec(3, 1e300), rec(4, 1)), uint64(1<<40))
	f.Fuzz(func(t *testing.T, raw []byte, k uint64) {
		m := Mix{}
		for ; len(raw) >= 9; raw = raw[9:] {
			m[isa.Class(int8(raw[0]))] = math.Float64frombits(binary.LittleEndian.Uint64(raw[1:9]))
		}
		samplerMatchesScan(t, "fuzz", m)
		s := compileMix(m)
		k >>= 11
		got := isa.ClassNop
		if s.total != 0 {
			got = s.classes[pick(s.breaks, k)]
		}
		if want := scanClass(m, k); got != want {
			t.Fatalf("%v: draw %#x picks %v, scan picks %v", m, k, got, want)
		}
	})
}
