package workload

import (
	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/microarch"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/sev"
)

// This file keeps the op-by-op app path that compiled pools and
// GuestExecutor.ExecuteRun replaced, as the reference they are checked
// against: a class draw, a per-op pool lookup with its fallback and a
// 64-bit modulo, then one ExecuteOp with its own budget check.

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

// sample draws a class: one rng word, or none for a mix with no positive
// weight, which draws NOP.
func (s *mixSampler) sample(r *rng.Source) isa.Class {
	if s.total == 0 {
		return isa.ClassNop
	}
	return s.classes[pick(s.breaks, r.Uint64()>>11)]
}

// classesOnly is the library compileMix binds: it has no ops, so every
// pool is empty and the class tables are all a test of them reads.
var classesOnly = &Library{ops: new(opTable)}

// compileMix builds the class sampler for a mix.
func compileMix(m Mix) *mixSampler {
	s := &mixSampler{}
	s.compile(m, classesOnly)
	return s
}

// idleSampler is the idle mix compiled once, as every runner shared it.
var idleSampler = compileMix(idleMix)

// opByOpRunner steps a Runner's state the way the runner did before runs:
// every op drawn by Sample after a class draw and retired by ExecuteOp,
// stopping at the first op the budget refuses.
type opByOpRunner struct{ *Runner }

func (r opByOpRunner) Step(g *sev.GuestExecutor) {
	if len(r.queue) == 0 {
		for i := 0; i < idleIntensity; i++ {
			op := r.lib.Sample(idleSampler.sample(r.r), r.r)
			ok, err := g.ExecuteOp(op)
			if err != nil || !ok {
				return
			}
		}
		return
	}
	job := &r.queue[0]
	if !r.started {
		r.started = true
		r.startTok = g.Tick()
		r.phaseIdx = 0
		r.phaseRun = 0
	}
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
		executed := 0
		for executed < jittered {
			op := r.lib.Sample(r.sampler.sample(r.r), r.r)
			ok, err := g.ExecuteOp(op)
			if err != nil || !ok {
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
		return
	}
	r.completed++
	r.jobTicks += g.Tick() - r.startTok
	r.queue = r.queue[1:]
	r.started = false
}
