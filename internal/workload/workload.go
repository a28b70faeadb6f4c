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
	"sort"

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
	draws := isa.DrawAliases("amd", doc.legal, isa.AMDTotalVariants, isa.AMDLegalVariants, seed)

	// Size every class pool first, so all pools share one allocation.
	var size [isa.ClassInvalid + 1]int
	total := len(draws)
	for c, pool := range doc.byClass {
		size[c] = len(pool)
		total += len(pool)
	}
	for _, a := range draws {
		size[doc.ops[doc.alias[a.Base]].Class()]++
	}
	idx := make([]uint8, total)
	l := &Library{ops: &doc.ops}
	for c := range l.byClass {
		n := copy(idx, doc.byClass[c])
		l.byClass[c], idx = idx[:n:size[c]], idx[size[c]:]
	}
	for _, a := range draws {
		i := doc.alias[a.Base]
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

// mixSampler is a Mix compiled to a sorted class/weight table, so per-
// instruction draws dispatch on slice index without rebuilding and sorting
// the class list per call. It draws a class proportional to the weights.
type mixSampler struct {
	classes []isa.Class // all mix classes, ascending (incl. non-positive weights)
	weights []float64
	total   float64 // sum of positive weights
}

// compileMix builds the sampler for a mix. The original map is not
// retained; mutating a Mix after compiling requires recompiling.
func compileMix(m Mix) *mixSampler {
	s := &mixSampler{
		classes: make([]isa.Class, 0, len(m)),
		weights: make([]float64, 0, len(m)),
	}
	for c := range m {
		s.classes = append(s.classes, c)
	}
	sort.Slice(s.classes, func(i, j int) bool { return s.classes[i] < s.classes[j] })
	for _, c := range s.classes {
		w := m[c]
		s.weights = append(s.weights, w)
		if w > 0 {
			s.total += w
		}
	}
	return s
}

func (s *mixSampler) sample(r *rng.Source) isa.Class {
	if s.total == 0 {
		return isa.ClassNop
	}
	x := r.Float64() * s.total
	for i, c := range s.classes {
		w := s.weights[i]
		if w <= 0 {
			continue
		}
		if x < w {
			return c
		}
		x -= w
	}
	return s.classes[len(s.classes)-1]
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
	// IdleIntensity is the per-tick instruction count when no job is
	// queued (0 disables idle activity).
	IdleIntensity int
	idleMix       Mix
	idleSampler   *mixSampler
	// sampler caches the compiled mix of the phase identified by
	// samplerOf, so the per-instruction draw loop does not rebuild the
	// sorted class table every tick. The pointer identity of the phase
	// within the queued job is stable until the job advances.
	sampler   *mixSampler
	samplerOf *Phase
}

var _ sev.Process = (*Runner)(nil)

// NewRunner builds a job runner named name.
func NewRunner(name string, lib *Library, r *rng.Source) *Runner {
	idleMix := Mix{
		isa.ClassALU:    4,
		isa.ClassLoad:   2,
		isa.ClassStore:  1,
		isa.ClassBranch: 2,
		isa.ClassNop:    3,
	}
	return &Runner{
		name:          name,
		lib:           lib,
		r:             r,
		IdleIntensity: 20,
		idleMix:       idleMix,
		idleSampler:   compileMix(idleMix),
	}
}

// Name implements sev.Process.
func (r *Runner) Name() string { return r.name }

// Enqueue appends a job to the runner's queue.
func (r *Runner) Enqueue(job Job) { r.queue = append(r.queue, job) }

// Pending returns the number of jobs not yet finished.
func (r *Runner) Pending() int { return len(r.queue) }

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
			r.sampler = compileMix(phase.Mix)
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
	for i := 0; i < r.IdleIntensity; i++ {
		op := r.lib.Sample(r.idleSampler.sample(r.r), r.r)
		ok, err := g.ExecuteOp(op)
		if err != nil || !ok {
			return
		}
	}
}
