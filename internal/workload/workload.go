// Package workload implements the guest applications of the paper's three
// case studies as generative instruction-mix workloads:
//
//   - website loads in a browser (45 Alexa-top sites) for the website
//     fingerprinting attack,
//   - keystroke bursts (an xdotool analog emitting K keystrokes in a
//     3-second window) for the keystroke sniffing attack,
//   - DNN model inference (a 30-model zoo of layer sequences) for the
//     model extraction attack.
//
// Each secret (site, key count, model architecture) induces a distinct,
// noisy, time-structured sequence of instruction mixes; executed on the
// micro-architecture simulator these produce the HPC leakage signatures
// the attacks learn and Aegis obfuscates.
package workload

import (
	"slices"

	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/microarch"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/sev"
)

// Library indexes the legal instructions of a processor by class, so
// workloads can sample concrete instructions for a mix. Pools hold one-byte
// indices into a table of decoded ops shared by every library of a
// processor: a library's thousands of instructions decode to only a few
// dozen distinct ops.
type Library struct {
	// byClass is indexed by class, so a per-instruction draw costs no hash
	// lookup. Ops of classes outside the isa enumeration are dropped:
	// Sample could never ask for them.
	byClass [isa.ClassInvalid + 1][]uint8
	// ops is the table the pools index; every DefaultLibrary shares
	// amdDocumented's.
	ops *opTable
}

// opTable holds each distinct decoded op of a processor once; a uint8
// indexes it without a bounds check.
type opTable [256]microarch.Op

// documentedOps is the seed-independent part of every library of one
// processor: its documented variants, decoded and interned into ops.
type documentedOps struct {
	// legal[i] reports whether documented variant i executes normally;
	// only those are alias bases.
	legal []bool
	// alias[i] indexes the op of every encoding alias of documented
	// variant i.
	alias []uint8
	// byClass indexes the legal documented ops by class, in ID order.
	byClass [isa.ClassInvalid + 1][]uint8
	ops     opTable
	// distinct counts the entries of ops in use.
	distinct int
}

// amdDocumented is decoded once per process, for every DefaultLibrary.
var amdDocumented = decodeDocumented(isa.AMDEpycFeatures())

func decodeDocumented(features isa.CPUFeatures) *documentedOps {
	doc := isa.Documented()
	d := &documentedOps{
		legal: make([]bool, len(doc)),
		alias: make([]uint8, len(doc)),
	}
	index := map[microarch.Op]uint8{}
	intern := func(op microarch.Op) uint8 {
		i, ok := index[op]
		if !ok {
			if d.distinct == len(d.ops) {
				panic("workload: more distinct decoded ops than a uint8 indexes")
			}
			i = uint8(d.distinct)
			d.ops[i] = op
			index[op] = i
			d.distinct++
		}
		return i
	}
	for i := range doc {
		op := microarch.Decode(&doc[i])
		d.alias[i] = intern(op.WithoutStack())
		d.legal[i] = isa.Probe(doc[i], features) == isa.FaultNone
		if c := op.Class(); d.legal[i] && c > 0 {
			d.byClass[c] = append(d.byClass[c], intern(op))
		}
	}
	return d
}

// DefaultLibrary builds the AMD EPYC library used across the evaluation:
// the ops of Cleanup(SpecAMDEpyc(seed), AMDEpycFeatures()).Legal, by class
// and in spec order. It only replays the seed's alias draws over
// amdDocumented; it builds no mnemonic string and no reserved encoding,
// since an op carries neither.
func DefaultLibrary(seed uint64) *Library {
	doc := amdDocumented
	// Stage each alias's op, so every class pool can be sized before one
	// allocation holds them all. The specification never holds more than
	// AMDLegalVariants legal variants, so the stage fits on the stack.
	var staged [isa.AMDLegalVariants]uint8
	drawn := 0
	var size [isa.ClassInvalid + 1]int
	aliases := isa.DrawAliases("amd", doc.legal, isa.AMDTotalVariants, isa.AMDLegalVariants, seed)
	for a, ok := aliases.Next(); ok; a, ok = aliases.Next() {
		i := doc.alias[a.Base]
		staged[drawn] = i
		drawn++
		size[doc.ops[i].Class()]++
	}
	total := drawn
	for c, pool := range doc.byClass {
		size[c] += len(pool)
		total += len(pool)
	}
	idx := make([]uint8, total)
	l := &Library{ops: &doc.ops}
	for c := range l.byClass {
		n := copy(idx, doc.byClass[c])
		l.byClass[c], idx = idx[:n:size[c]], idx[size[c]:]
	}
	for _, i := range staged[:drawn] {
		c := doc.ops[i].Class()
		l.byClass[c] = append(l.byClass[c], i)
	}
	return l
}

// nop is what Sample draws from a library with neither the requested class
// nor ALU ops.
var nop = microarch.Decode(&isa.Variant{Mnemonic: "NOP", Class: isa.ClassNop, Uops: 1})

// Sample draws an op of the given class; it falls back to ALU ops for
// classes absent from the library, including values outside the isa
// enumeration.
func (l *Library) Sample(class isa.Class, r *rng.Source) microarch.Op {
	var pool []uint8
	if class > 0 && class <= isa.ClassInvalid {
		pool = l.byClass[class]
	}
	if len(pool) == 0 {
		pool = l.byClass[isa.ClassALU]
		if len(pool) == 0 {
			return nop
		}
	}
	return l.ops[pool[r.Intn(len(pool))]]
}

// Mix is a weighted instruction-class distribution.
type Mix map[isa.Class]float64

// mixSampler is a Mix compiled for per-instruction draws: it draws a class
// proportional to the positive weights.
//
// The class is defined by scan over the top 53 bits k of one rng word
// (the bits rng.Source.Float64 divides by 2⁵³). scan is monotone in k: a
// larger k scales to a larger x, every subtraction keeps that order, so
// the first class x falls below can only come later. Each class therefore
// owns one run of draws, and sample finds the run by counting the run
// starts at or below k: breaks, found by bisecting scan when the mix is
// compiled, so sample picks exactly the class scan would.
type mixSampler struct {
	classes []isa.Class // all mix classes, ascending (incl. non-positive weights)
	weights []float64
	total   float64 // sum of positive weights
	// breaks[i] is the least k whose scan picks classes[i+1] or a later
	// class, or 1<<53 when no k does.
	breaks []uint64
}

// drawCount is the number of distinct 53-bit draws.
const drawCount = 1 << 53

// compileMix builds the sampler for a mix.
func compileMix(m Mix) *mixSampler {
	s := &mixSampler{}
	s.compile(m)
	return s
}

// compile recompiles s for m, reusing its tables. The original map is not
// retained; mutating a Mix after compiling requires recompiling.
func (s *mixSampler) compile(m Mix) {
	s.classes, s.weights, s.breaks, s.total = s.classes[:0], s.weights[:0], s.breaks[:0], 0
	for c := range m {
		s.classes = append(s.classes, c)
	}
	slices.Sort(s.classes)
	for _, c := range s.classes {
		w := m[c]
		s.weights = append(s.weights, w)
		if w > 0 {
			s.total += w
		}
	}
	// Start each bisection at the run start the weights predict; float
	// rounding of the scan moves the exact start by a few draws at most
	// on ordinary weights.
	cum, lo := 0.0, uint64(0)
	for i := 1; i < len(s.classes); i++ {
		if w := s.weights[i-1]; w > 0 {
			cum += w
		}
		lo = s.runStart(i, lo, guessDraw(cum/s.total))
		s.breaks = append(s.breaks, lo)
	}
}

// guessDraw returns the draw nearest to p·2⁵³, clamped to [0, 2⁵³].
func guessDraw(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return drawCount
	}
	return uint64(p * drawCount)
}

// scan returns the index of the class the draw k picks: the first class,
// in class order, whose positive weight the running remainder of
// k/2⁵³·total falls below, else the last class.
func (s *mixSampler) scan(k uint64) int {
	x := float64(k) / drawCount * s.total
	for i, w := range s.weights {
		if w <= 0 {
			continue
		}
		if x < w {
			return i
		}
		x -= w
	}
	return len(s.classes) - 1
}

// reaches reports whether the draw k picks class i or a later one; every
// k past the last draw does.
func (s *mixSampler) reaches(k uint64, i int) bool {
	return k >= drawCount || s.scan(k) >= i
}

// runStart returns the least k >= lo that reaches class i, given that
// lo-1 does not (or lo is 0). It widens a bracket around guess until its
// top reaches class i and the draw below its bottom does not, then
// bisects the bracket.
func (s *mixSampler) runStart(i int, lo, guess uint64) uint64 {
	guess = min(max(guess, lo), drawCount)
	a, b := guess, guess
	for step := uint64(1); a > lo && s.reaches(a-1, i) || !s.reaches(b, i); step *= 2 {
		a, b = guess-min(step, guess-lo), min(guess+step, drawCount)
	}
	for a < b {
		mid := a + (b-a)/2
		if s.reaches(mid, i) {
			b = mid
		} else {
			a = mid + 1
		}
	}
	return a
}

func (s *mixSampler) sample(r *rng.Source) isa.Class {
	if s.total == 0 {
		return isa.ClassNop
	}
	return s.pick(r.Uint64() >> 11)
}

// pick returns the class of the 53-bit draw k: the one whose run starts
// at the last break at or below k. The count adds the sign bit of b-k-1,
// which is set exactly when b <= k, since both are below 2⁵⁴.
func (s *mixSampler) pick(k uint64) isa.Class {
	i := 0
	for _, b := range s.breaks {
		i += int((b - k - 1) >> 63)
	}
	return s.classes[i]
}

// Phase is one stage of a job: a mix executed at a per-tick intensity until
// its instruction budget is consumed, against a given working set.
type Phase struct {
	Name string
	Mix  Mix
	// Instructions is the total instruction count of the phase.
	Instructions int
	// Intensity is the maximum instructions executed per tick.
	Intensity int
	// WorkingSet is the memory region size the phase's accesses span.
	WorkingSet uint64
}

// Job is a unit of application work (one page load, one inference, one
// keystroke window).
type Job struct {
	Label  string
	Phases []Phase
}

// JobTiming records when a job ran, in world ticks.
type JobTiming struct {
	Label     string
	StartTick int64
	EndTick   int64
}

// Duration returns the job's tick count.
func (t JobTiming) Duration() int64 { return t.EndTick - t.StartTick }

// Runner executes a queue of jobs as a guest process. Between jobs it emits
// light idle activity (browser event loop, OS housekeeping).
type Runner struct {
	name string
	lib  *Library
	r    *rng.Source

	queue    []Job
	phaseIdx int
	phaseRun int // instructions done in current phase
	started  bool
	startTok int64

	timings []JobTiming
	// sampler holds the compiled mix of the phase identified by
	// samplerOf, so the per-instruction draw loop does not rebuild the
	// sorted class table every tick. The pointer identity of the phase
	// within the queued job is stable until the job advances.
	sampler   mixSampler
	samplerOf *Phase
}

var _ sev.Process = (*Runner)(nil)

// idleIntensity is a runner's per-tick instruction count when no job is
// queued.
const idleIntensity = 20

// idleMix is the activity of every runner with no job queued, compiled
// once per process into idleSampler, which runners only read.
var (
	idleMix = Mix{
		isa.ClassALU:    4,
		isa.ClassLoad:   2,
		isa.ClassStore:  1,
		isa.ClassBranch: 2,
		isa.ClassNop:    3,
	}
	idleSampler = compileMix(idleMix)
)

// NewRunner builds a job runner named name.
func NewRunner(name string, lib *Library, r *rng.Source) *Runner {
	return &Runner{name: name, lib: lib, r: r}
}

// Name implements sev.Process.
func (r *Runner) Name() string { return r.name }

// Enqueue appends a job to the runner's queue.
func (r *Runner) Enqueue(job Job) { r.queue = append(r.queue, job) }

// Pending returns the number of jobs not yet finished.
func (r *Runner) Pending() int { return len(r.queue) }

// Completed returns the number of completed jobs, without the copy
// Timings makes.
func (r *Runner) Completed() int { return len(r.timings) }

// Timings returns completed job timings.
func (r *Runner) Timings() []JobTiming {
	return append([]JobTiming(nil), r.timings...)
}

// Step implements sev.Process: run up to one tick of the current job.
func (r *Runner) Step(g *sev.GuestExecutor) {
	if len(r.queue) == 0 {
		r.stepIdle(g)
		return
	}
	job := &r.queue[0]
	if !r.started {
		r.started = true
		r.startTok = g.Tick()
		r.phaseIdx = 0
		r.phaseRun = 0
	}
	// Per-tick intensity jitter: real page loads and inferences never
	// execute a metronome-exact instruction count per millisecond.
	for r.phaseIdx < len(job.Phases) {
		phase := &job.Phases[r.phaseIdx]
		if r.samplerOf != phase {
			r.sampler.compile(phase.Mix)
			r.samplerOf = phase
		}
		intensity := phase.Intensity
		if intensity <= 0 {
			intensity = 200
		}
		jittered := int(float64(intensity) * (1 + r.r.Gaussian(0, 0.12)))
		if jittered < 1 {
			jittered = 1
		}
		remainingPhase := phase.Instructions - r.phaseRun
		if jittered > remainingPhase {
			jittered = remainingPhase
		}
		g.Context().WorkingSet = phase.WorkingSet
		executed := 0
		for executed < jittered {
			op := r.lib.Sample(r.sampler.sample(r.r), r.r)
			ok, err := g.ExecuteOp(op)
			if err != nil || !ok {
				// Budget exhausted this tick; resume next tick.
				r.phaseRun += executed
				return
			}
			executed++
		}
		r.phaseRun += executed
		if r.phaseRun >= phase.Instructions {
			r.phaseIdx++
			r.phaseRun = 0
			continue
		}
		// Phase has work left but this tick's intensity is spent.
		return
	}
	// Job complete.
	r.timings = append(r.timings, JobTiming{
		Label:     job.Label,
		StartTick: r.startTok,
		EndTick:   g.Tick(),
	})
	r.queue = r.queue[1:]
	r.started = false
}

func (r *Runner) stepIdle(g *sev.GuestExecutor) {
	for i := 0; i < idleIntensity; i++ {
		op := r.lib.Sample(idleSampler.sample(r.r), r.r)
		ok, err := g.ExecuteOp(op)
		if err != nil || !ok {
			return
		}
	}
}
