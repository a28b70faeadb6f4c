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
	// bindPool could never ask for them (it falls back to ALU for classes
	// outside the enumeration).
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
		d.legal[i] = isa.Probe(&doc[i], features) == isa.FaultNone
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

// nop is what a pool of a library with neither the requested class nor
// ALU ops draws, without consuming a draw.
var nop = microarch.Decode(&isa.Variant{Mnemonic: "NOP", Class: isa.ClassNop, Uops: 1})

// bindPool returns the pool an op of the given class is drawn from: the
// class's own, else the ALU pool for classes absent from the library,
// including values outside the isa enumeration. An empty pool draws nop.
func (l *Library) bindPool(class isa.Class) []uint8 {
	var pool []uint8
	if class > 0 && class <= isa.ClassInvalid {
		pool = l.byClass[class]
	}
	if len(pool) == 0 {
		pool = l.byClass[isa.ClassALU]
	}
	return pool
}

// Mix is a weighted instruction-class distribution.
type Mix map[isa.Class]float64

// mixSampler is a Mix compiled against a library for per-instruction
// draws: fill draws a class proportional to the positive weights, then an
// op of that class's pool, bound when the mix is compiled.
//
// The class is defined by scan over the top 53 bits k of one rng word
// (the bits rng.Source.Float64 divides by 2⁵³). scan is monotone in k: a
// larger k scales to a larger x, every subtraction keeps that order, so
// the first class x falls below can only come later. Each class therefore
// owns one run of draws, and pick finds the run by counting the run
// starts at or below k: breaks, found by bisecting scan when the mix is
// compiled, so pick returns exactly the class scan would.
type mixSampler struct {
	classes []isa.Class // all mix classes, ascending (incl. non-positive weights)
	weights []float64
	total   float64 // sum of positive weights
	// breaks[i] is the least k whose scan picks classes[i+1] or a later
	// class, or 1<<53 when no k does.
	breaks []uint64
	// pools[i] is the library pool of classes[i]. A mix with no positive
	// weight draws no class and has one pool, the NOP class's.
	pools [][]uint8
	ops   *opTable
}

// drawCount is the number of distinct 53-bit draws.
const drawCount = 1 << 53

// compile recompiles s for m and lib, reusing its tables. The original
// map is not retained; mutating a Mix after compiling requires
// recompiling.
func (s *mixSampler) compile(m Mix, lib *Library) {
	// Grow the tables to the mix's size at most, not by append's doubling:
	// a runner keeps its tables for life.
	n := len(m)
	s.classes, s.weights = slices.Grow(s.classes[:0], n), slices.Grow(s.weights[:0], n)
	s.breaks, s.pools = slices.Grow(s.breaks[:0], n), slices.Grow(s.pools[:0], n)
	s.total, s.ops = 0, lib.ops
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
	if s.total == 0 {
		s.pools = append(s.pools, lib.bindPool(isa.ClassNop))
		return
	}
	for _, c := range s.classes {
		s.pools = append(s.pools, lib.bindPool(c))
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

// fill draws len(ops) ops in turn. Each is a class from one rng word,
// unless the mix has no positive weight, then an op of the class's pool
// from the next word: the entry at that word modulo the pool size, or nop
// without a draw when the pool is empty.
func (s *mixSampler) fill(ops []microarch.Op, r *rng.Source) {
	pools, table, breaks, drawsClass := s.pools, s.ops, s.breaks, s.total != 0
	for i := range ops {
		p := pools[0]
		if drawsClass {
			p = pools[pick(breaks, r.Uint64()>>11)]
		}
		if len(p) == 0 {
			ops[i] = nop
			continue
		}
		ops[i] = table[p[r.Uint64()%uint64(len(p))]]
	}
}

// pick returns the index of the class of the 53-bit draw k: the one whose
// run starts at the last of breaks at or below k. The count adds the sign
// bit of b-k-1, which is set exactly when b <= k, since both are below
// 2⁵⁴.
func pick(breaks []uint64, k uint64) int {
	i := 0
	for _, b := range breaks {
		i += int((b - k - 1) >> 63)
	}
	return i
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

	// completed counts finished jobs and jobTicks sums their durations
	// in world ticks: a long-lived runner keeps no per-job record.
	completed int
	jobTicks  int64
	// sampler holds the compiled mix of the phase identified by
	// samplerOf (idlePhase between jobs), so the per-instruction draw
	// loop does not rebuild the sorted class table or rebind the pools
	// every tick. The pointer identity of the phase within the queued job
	// is stable until the job advances.
	sampler   mixSampler
	samplerOf *Phase
}

var _ sev.Process = (*Runner)(nil)

// idleIntensity is a runner's per-tick instruction count when no job is
// queued.
const idleIntensity = 20

// idleMix is the activity of every runner with no job queued. A runner
// compiles it into its sampler as it would a phase's, identified by
// idlePhase.
var (
	idleMix = Mix{
		isa.ClassALU:    4,
		isa.ClassLoad:   2,
		isa.ClassStore:  1,
		isa.ClassBranch: 2,
		isa.ClassNop:    3,
	}
	idlePhase = &Phase{Mix: idleMix}
)

// runChunk is how many ops a runner draws before retiring them in one
// GuestExecutor.ExecuteRun call; the chunk lives on the stack.
const runChunk = 64

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

// Completed returns the number of completed jobs.
func (r *Runner) Completed() int { return r.completed }

// JobTicks returns the summed duration of the completed jobs, in world
// ticks from each job's first tick to its last.
func (r *Runner) JobTicks() int64 { return r.jobTicks }

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
		r.use(phase)
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
		executed, all := r.run(g, jittered)
		r.phaseRun += executed
		if !all {
			// Budget exhausted this tick; resume next tick.
			return
		}
		if r.phaseRun >= phase.Instructions {
			r.phaseIdx++
			r.phaseRun = 0
			continue
		}
		// Phase has work left but this tick's intensity is spent.
		return
	}
	// Job complete.
	r.completed++
	r.jobTicks += g.Tick() - r.startTok
	r.queue = r.queue[1:]
	r.started = false
}

func (r *Runner) stepIdle(g *sev.GuestExecutor) {
	r.use(idlePhase)
	r.run(g, idleIntensity)
}

// use compiles the phase's mix into the sampler, unless the sampler
// already holds it.
func (r *Runner) use(phase *Phase) {
	if r.samplerOf != phase {
		r.sampler.compile(phase.Mix, r.lib)
		r.samplerOf = phase
	}
}

// run draws and retires up to n ops of the compiled phase, clamped to the
// tick's budget, and reports how many retired and whether all n did.
//
// It draws a chunk of ops ahead of retiring them, which moves no draw:
// the runner's stream feeds only its own jitter, class and op draws, and
// retirement draws only from the context's and the core's streams. When
// the budget runs out first, it makes the one draw more that an op-by-op
// loop makes before finding the budget spent. Pools hold only legal ops,
// so no op faults mid-chunk.
func (r *Runner) run(g *sev.GuestExecutor, n int) (int, bool) {
	want := min(n, g.Remaining())
	var chunk [runChunk]microarch.Op
	done := 0
	for done < want {
		ops := chunk[:min(want-done, runChunk)]
		r.sampler.fill(ops, r.r)
		k, err := g.ExecuteRun(ops)
		done += k
		if err != nil || k < len(ops) {
			return done, false
		}
	}
	if done < n {
		r.sampler.fill(chunk[:1], r.r)
		return done, false
	}
	return done, true
}
