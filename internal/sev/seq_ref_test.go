package sev

import (
	"testing"

	"github.com/repro/aegis/internal/faultinject"
	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/microarch"
)

// executeSeqByOps is the reference ExecuteSeq is checked against: the
// same interrupt draw, then ExecuteOp op by op, each with its own budget
// check, stopping at the first fault or refusal.
func executeSeqByOps(g *GuestExecutor, seq []microarch.Op) (int, error) {
	if stop, ok := g.faults.GadgetInterrupt(len(seq)); ok {
		seq = seq[:stop]
	}
	return executeRunByOps(g, seq)
}

// executeRunByOps is the reference ExecuteRun is checked against:
// ExecuteOp op by op, each with its own budget check, stopping at the
// first fault or refusal.
func executeRunByOps(g *GuestExecutor, seq []microarch.Op) (int, error) {
	n := 0
	for _, op := range seq {
		ok, err := g.ExecuteOp(op)
		if err != nil {
			return n, err
		}
		if !ok {
			return n, nil
		}
		n++
	}
	return n, nil
}

// seqCall is one sequence call's outcome: the budget left before it, its
// return values and the executor's Used after it.
type seqCall struct {
	tick          int64
	left, n, used int
	err           string
}

// seqCallProc burns a tick-dependent number of single ops, then runs its
// sequence through run until a call retires less than all of it (at most
// four calls a tick), logging each call.
type seqCallProc struct {
	seq  []microarch.Op
	burn microarch.Op
	run  func(*GuestExecutor, []microarch.Op) (int, error)
	log  []seqCall
}

func (p *seqCallProc) Step(g *GuestExecutor) {
	for i := g.Tick() % 24; i > 0; i-- {
		g.ExecuteOp(p.burn)
	}
	for call := 0; call < 4; call++ {
		left := g.Remaining()
		n, err := p.run(g, p.seq)
		c := seqCall{tick: g.Tick(), left: left, n: n, used: g.Used()}
		if err != nil {
			c.err = err.Error()
		}
		p.log = append(p.log, c)
		if n < len(p.seq) {
			return
		}
	}
}

// TestExecuteSeqMatchesOpByOp runs ExecuteSeq and ExecuteRun against
// their op-by-op references in twin worlds and requires every call's
// return value, error and Used, and the cores' final counters, to agree:
// with a budget the sequence crosses mid-call (the burn before it walks
// the remainder across every offset, zero included), under gadget
// interrupts, and with a faulting op inside the sequence, where the count
// is the ops retired before the fault.
func TestExecuteSeqMatchesOpByOp(t *testing.T) {
	alu := aluVariant(t)
	aluOp := microarch.Decode(&alu)
	load := microarch.Decode(&isa.Variant{Mnemonic: "MOV", Class: isa.ClassLoad, Uops: 1, MemReads: 1})
	fault := microarch.Decode(&isa.Variant{Mnemonic: "MOVPF", Class: isa.ClassLoad, Uops: 1, MemReads: 1, PageFaults: true})
	seq := []microarch.Op{load, aluOp, load, load, aluOp, load, aluOp, load}
	faulting := append(append([]microarch.Op(nil), seq[:3]...), fault, load)
	// edges says which ways a call ends short: the budget ran out, an
	// interrupt landed with budget left, or an op faulted. zero says a
	// call started with no budget left.
	type edges struct{ budget, interrupt, fault, zero bool }
	type exec = func(*GuestExecutor, []microarch.Op) (int, error)
	seqExec, seqRef := (*GuestExecutor).ExecuteSeq, executeSeqByOps
	runExec, runRef := (*GuestExecutor).ExecuteRun, executeRunByOps
	for _, tc := range []struct {
		name      string
		exec, ref exec
		seq       []microarch.Op
		budget    int
		faults    faultinject.Config
		edges     edges
	}{
		{"budget-edge", seqExec, seqRef, seq, 20, faultinject.Config{}, edges{budget: true, zero: true}},
		{"gadget-interrupt", seqExec, seqRef, seq, 2000, faultinject.Config{Seed: 3, GadgetInterruptRate: 0.5}, edges{interrupt: true}},
		{"interrupt-at-budget-edge", seqExec, seqRef, seq, 20, faultinject.Config{Seed: 4, GadgetInterruptRate: 0.5}, edges{budget: true, interrupt: true, zero: true}},
		{"faulting-op", seqExec, seqRef, faulting, 2000, faultinject.Config{}, edges{fault: true}},
		{"run-budget-edge", runExec, runRef, seq, 20, faultinject.Config{}, edges{budget: true, zero: true}},
		{"run-faulting-op", runExec, runRef, faulting, 2000, faultinject.Config{}, edges{fault: true}},
		{"run-fault-at-budget-edge", runExec, runRef, faulting, 20, faultinject.Config{}, edges{budget: true, fault: true, zero: true}},
	} {
		run := func(exec exec) (*seqCallProc, microarch.Counters) {
			cfg := DefaultConfig(9)
			cfg.TickBudget = tc.budget
			w := NewWorld(cfg)
			vm, err := w.LaunchVM(VMConfig{VCPUs: 1, SEV: true})
			if err != nil {
				t.Fatal(err)
			}
			p := &seqCallProc{seq: tc.seq, burn: aluOp, run: exec}
			if err := vm.AddProcess(0, p); err != nil {
				t.Fatal(err)
			}
			if tc.faults.GadgetInterruptRate > 0 {
				w.SetFaults(faultinject.New(tc.faults))
			}
			w.Run(60)
			pc, err := vm.PhysicalCore(0)
			if err != nil {
				t.Fatal(err)
			}
			core, err := w.Core(pc)
			if err != nil {
				t.Fatal(err)
			}
			return p, core.Counters()
		}
		got, gotCtrs := run(tc.exec)
		want, wantCtrs := run(tc.ref)
		for i := range min(len(got.log), len(want.log)) {
			if got.log[i] != want.log[i] {
				t.Fatalf("%s: call %d: %+v, reference %+v", tc.name, i, got.log[i], want.log[i])
			}
		}
		if len(got.log) != len(want.log) {
			t.Fatalf("%s: %d calls, reference %d", tc.name, len(got.log), len(want.log))
		}
		if gotCtrs != wantCtrs {
			t.Errorf("%s: core counters %+v, reference %+v", tc.name, gotCtrs, wantCtrs)
		}
		// The case must reach exactly the edges it is named for.
		var seen edges
		for _, c := range got.log {
			seen.zero = seen.zero || c.left == 0
			switch {
			case c.err != "":
				seen.fault = true
			case c.n == len(tc.seq):
			case c.used == tc.budget:
				seen.budget = true
			default:
				seen.interrupt = true
			}
		}
		if seen != tc.edges {
			t.Errorf("%s: calls ended short at %+v, want %+v", tc.name, seen, tc.edges)
		}
	}
}
