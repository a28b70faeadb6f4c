package workload

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/repro/aegis/internal/faultinject"
	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/microarch"
	"github.com/repro/aegis/internal/rng"
	"github.com/repro/aegis/internal/sev"
)

// leaveBudget burns ALU ops until left of the tick's budget remains (or
// less, under a preemption burst), then steps the runner: the runner
// starts its tick with exactly that budget, zero included, which the
// world's scheduler alone never gives an app.
type leaveBudget struct {
	runner sev.Process
	left   int
	burn   microarch.Op
	ctx    *microarch.ExecContext
}

func (p *leaveBudget) Step(g *sev.GuestExecutor) {
	for g.Remaining() > p.left {
		g.ExecuteOp(p.burn)
	}
	p.ctx = g.Context()
	p.runner.Step(g)
}

// runnerTick is what one tick leaves behind that a later tick can read:
// the runner's position and stream, the context and the core.
type runnerTick struct {
	queued, completed, phaseIdx, phaseRun int
	started                               bool
	base, workingSet, pc                  uint64
	nextRunnerDraw, nextContextDraw       uint64
	counters                              microarch.Counters
}

func (p *leaveBudget) snapshot(r *Runner, core *microarch.Core) runnerTick {
	peek, ctxPeek := *r.r, *p.ctx.Rand
	return runnerTick{
		queued: len(r.queue), completed: r.completed, phaseIdx: r.phaseIdx, phaseRun: r.phaseRun,
		started: r.started,
		base:    p.ctx.Base, workingSet: p.ctx.WorkingSet, pc: p.ctx.PC,
		nextRunnerDraw: peek.Uint64(), nextContextDraw: ctxPeek.Uint64(),
		counters: core.Counters(),
	}
}

// TestRunnerMatchesOpByOp runs a Runner and the op-by-op reference runner
// (reference_test.go) in twin worlds and requires the same state after
// every tick: the core's counters, the context, the runner's position and
// the next draw of its stream. Each job workload queues two jobs and then
// idles. "edge" opens with a phase exactly as long as the budget, so its
// jittered count equals Remaining() and the next phase starts with none
// left; phases one op shorter and one op longer follow. Runners start
// each tick with 0, 1, 19, 20, 21 or 2000 ops of budget, and run under
// light and heavy preemption too.
func TestRunnerMatchesOpByOp(t *testing.T) {
	alu := microarch.Decode(&isa.Variant{Mnemonic: "ADD", Class: isa.ClassALU, Uops: 1})
	workloads := []struct {
		name string
		jobs func(budget int, r *rng.Source) []Job
	}{
		{"website", func(_ int, r *rng.Source) []Job {
			return []Job{WebsiteJob("google.com", r.Split("a")), WebsiteJob("bing.com", r.Split("b"))}
		}},
		{"keystroke", func(_ int, r *rng.Source) []Job {
			return []Job{KeystrokeJob(2, 30, r.Split("a")), KeystrokeJob(4, 20, r.Split("b"))}
		}},
		{"dnn", func(_ int, r *rng.Source) []Job {
			zoo := ModelZoo()
			return []Job{InferenceJob(zoo[0], r.Split("a")), InferenceJob(zoo[7], r.Split("b"))}
		}},
		{"idle", func(int, *rng.Source) []Job { return nil }},
		{"edge", func(budget int, _ *rng.Source) []Job {
			job := Job{Label: "edge"}
			for _, n := range []int{budget, budget - 1, budget + 1, budget, 3 * budget} {
				job.Phases = append(job.Phases, Phase{
					Name: "edge", Mix: Mix{isa.ClassLoad: 1, isa.ClassALU: 2, isa.ClassBranch: 1},
					Instructions: n, Intensity: 1 << 20, WorkingSet: 16 << 10,
				})
			}
			return []Job{job, job}
		}},
	}
	const ticks = 600
	lib := DefaultLibrary(3)
	for _, fault := range []string{faultinject.PresetOff, faultinject.PresetLight, faultinject.PresetHeavy} {
		for _, budget := range []int{0, 1, 19, 20, 21, 2000} {
			for _, wl := range workloads {
				name := fmt.Sprintf("%s/budget-%d/%s", fault, budget, wl.name)
				type twin struct {
					world  *sev.World
					runner *Runner
					proc   *leaveBudget
					core   *microarch.Core
				}
				build := func(reference bool) twin {
					cfg := sev.DefaultConfig(17)
					cfg.TickBudget = max(budget, 64)
					w := sev.NewWorld(cfg)
					vm, err := w.LaunchVM(sev.VMConfig{VCPUs: 1, SEV: true})
					if err != nil {
						t.Fatal(err)
					}
					fc, err := faultinject.Preset(fault, 5)
					if err != nil {
						t.Fatal(err)
					}
					if fc != (faultinject.Config{}) {
						w.SetFaults(faultinject.New(fc))
					}
					runner := NewRunner("app", lib, rng.New(18).Split("runner"))
					for _, job := range wl.jobs(budget, rng.New(19)) {
						runner.Enqueue(job)
					}
					p := &leaveBudget{runner: runner, left: budget, burn: alu}
					if reference {
						p.runner = opByOpRunner{runner}
					}
					if err := vm.AddProcess(0, p); err != nil {
						t.Fatal(err)
					}
					pc, err := vm.PhysicalCore(0)
					if err != nil {
						t.Fatal(err)
					}
					core, err := w.Core(pc)
					if err != nil {
						t.Fatal(err)
					}
					return twin{w, runner, p, core}
				}
				got, want := build(false), build(true)
				for tick := 0; tick < ticks; tick++ {
					got.world.Step()
					want.world.Step()
					g, w := got.proc.snapshot(got.runner, got.core), want.proc.snapshot(want.runner, want.core)
					if g != w {
						t.Fatalf("%s: tick %d:\n runner    %+v\n reference %+v", name, tick, g, w)
					}
				}
				if budget == 2000 && fault == faultinject.PresetOff && wl.name != "idle" && got.runner.Completed() != 2 {
					t.Errorf("%s: %d of 2 jobs completed in %d ticks, so the idle tail went unchecked",
						name, got.runner.Completed(), ticks)
				}
			}
		}
	}
}

// TestPoolOpsRetireWithoutFault checks that every op a library pool holds,
// and the nop an empty pool draws, retires on a core without faulting:
// the core faults exactly the ops whose decoded fault kind is not 0. A
// runner draws a chunk of ops before retiring any, so a fault mid-chunk
// would leave ops drawn that the op-by-op runner never drew.
func TestPoolOpsRetireWithoutFault(t *testing.T) {
	core := microarch.NewCore(0, microarch.DefaultCoreConfig(), rng.New(1))
	ctx := microarch.NewWorkloadContext(0x10000, 1<<20, rng.New(2))
	if err := core.ExecuteOp(nop, ctx); err != nil {
		t.Fatalf("nop: %v", err)
	}
	ops := 0
	for seed := uint64(0); seed < 50; seed++ {
		lib := DefaultLibrary(seed)
		for c, pool := range lib.byClass {
			for _, i := range pool {
				if err := core.ExecuteOp(lib.ops[i], ctx); err != nil {
					t.Fatalf("seed %d: %v pool op %#x faults: %v", seed, isa.Class(c), uint64(lib.ops[i]), err)
				}
				ops++
			}
		}
	}
	if ops == 0 {
		t.Fatal("no pool ops checked")
	}
}

// FuzzCompiledMixMatchesReference checks a compiled mix's draws against
// the op-by-op reference, a class draw then Library.Sample, on arbitrary
// mixes (9-byte records as in FuzzMixSampler: zero, negative, NaN and
// infinite weights, classes outside the enumeration, the empty mix) and
// libraries with classes absent, no ALU ops or no ops at all. Both must
// draw the same ops and leave their streams at the same word.
func FuzzCompiledMixMatchesReference(f *testing.F) {
	rec := func(c int8, w float64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{byte(c)}, math.Float64bits(w))
	}
	add := isa.Variant{Mnemonic: "ADD", Class: isa.ClassALU, Uops: 1}
	mov := isa.Variant{Mnemonic: "MOV", Class: isa.ClassLoad, Uops: 1, MemReads: 1}
	libs := []*Library{DefaultLibrary(1), newLibrary([]isa.Variant{add, mov}), newLibrary([]isa.Variant{mov}), newLibrary(nil)}
	f.Add([]byte{}, uint64(1), byte(0))
	f.Add(slices.Concat(rec(1, 3), rec(4, 1)), uint64(2), byte(0))
	f.Add(slices.Concat(rec(1, 0), rec(2, -1), rec(3, 2)), uint64(3), byte(1))
	f.Add(slices.Concat(rec(-3, 1), rec(9, 2), rec(40, 1)), uint64(4), byte(2))
	f.Add(slices.Concat(rec(2, -1), rec(3, 0)), uint64(5), byte(3))
	f.Add(slices.Concat(rec(1, math.NaN()), rec(5, math.Inf(1)), rec(7, 1)), uint64(6), byte(1))
	f.Fuzz(func(t *testing.T, raw []byte, seed uint64, pick byte) {
		m := Mix{}
		for ; len(raw) >= 9; raw = raw[9:] {
			m[isa.Class(int8(raw[0]))] = math.Float64frombits(binary.LittleEndian.Uint64(raw[1:9]))
		}
		lib := libs[int(pick)%len(libs)]
		var s, ref mixSampler
		s.compile(m, lib)
		ref.compile(m, lib)
		r1, r2 := rng.New(seed), rng.New(seed)
		for i := range 256 {
			if got, want := s.next(r1), lib.Sample(ref.sample(r2), r2); got != want {
				t.Fatalf("%v: draw %d is op %#x, reference %#x", m, i, uint64(got), uint64(want))
			}
		}
		if r1.Uint64() != r2.Uint64() {
			t.Fatalf("%v: the compiled mix and the reference consumed different numbers of words", m)
		}
	})
}
