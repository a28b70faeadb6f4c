package sev

import (
	"errors"
	"testing"
)

// listVCPU is the vCPU scheduler the typed slots replaced, kept as the
// reference model: a process list run round-robin from a rotating
// nextFirst, with defended marking the last entry as the defense slot.
// AddProcess, SetDefense and step are the old code verbatim, except that
// step reports whether the last entry ran instead of counting a skip.
type listVCPU struct {
	procs     []Process
	defended  bool
	nextFirst int
}

func (vc *listVCPU) AddProcess(p Process) {
	vc.procs = append(vc.procs, p)
	if vc.defended {
		last := len(vc.procs) - 1
		vc.procs[last-1], vc.procs[last] = p, vc.procs[last-1]
	}
}

func (vc *listVCPU) SetDefense(p Process) {
	if vc.defended {
		vc.procs[len(vc.procs)-1] = p
		return
	}
	vc.procs = append(vc.procs, p)
	vc.defended = true
}

func (vc *listVCPU) step(g *GuestExecutor) (lastRan bool) {
	n := len(vc.procs)
	for i := 0; i < n; i++ {
		j := (vc.nextFirst + i) % n
		vc.procs[j].Step(g)
		lastRan = lastRan || j == n-1
		if g.Remaining() == 0 {
			break
		}
	}
	if n > 0 {
		vc.nextFirst = (vc.nextFirst + 1) % n
	}
	return lastRan
}

// FuzzSlotsMatchListScheduler drives the typed slots and the list
// scheduler through the same decoded sequence of AddProcess, SetDefense
// and Step calls, with random per-process demands and per-tick budgets,
// and at most two processes per vCPU. After every tick each process must
// have been stepped as often and retired as many instructions under both,
// and the slots must count a skipped defense exactly when the reference,
// treating its second entry as the defense, skipped it.
//
// Input bytes come in (op, arg) pairs: op%3 selects AddProcess (arg sets
// the new process's demand), SetDefense (likewise) or Step (arg sets the
// tick budget).
func FuzzSlotsMatchListScheduler(f *testing.F) {
	const add, setDef, step = 0, 1, 2
	f.Add([]byte{add, 100, add, 20, step, 50, step, 50, step, 200, step, 10})                // the bench mirror's shape
	f.Add([]byte{add, 150, setDef, 1, step, 100, setDef, 90, step, 100, step, 100})          // daemon attach and re-plan
	f.Add([]byte{setDef, 40, step, 30, step, 30, step, 30, add, 250, step, 30, step, 30})    // defense first, app later
	f.Add([]byte{add, 200, step, 0, add, 0, step, 0, step, 255, add, 9, setDef, 3, step, 7}) // full vCPU, zero demand
	alu := aluVariant(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		w := NewWorld(DefaultConfig(1))
		vm, err := w.LaunchVM(VMConfig{VCPUs: 1, SEV: true})
		if err != nil {
			t.Fatal(err)
		}
		vc := vm.vcpus[0]
		ref := &listVCPU{}
		// pairs[i] holds the same process twice: [0] on the slots, [1] on
		// the reference.
		var pairs [][2]*burnProc
		newPair := func(arg byte) (*burnProc, *burnProc) {
			demand := int(arg) * 12
			pairs = append(pairs, [2]*burnProc{{perTick: demand, instr: alu}, {perTick: demand, instr: alu}})
			return pairs[len(pairs)-1][0], pairs[len(pairs)-1][1]
		}
		for tick := 0; len(data) >= 2; data = data[2:] {
			switch arg := data[1]; data[0] % 3 {
			case add:
				if len(ref.procs) == 2 {
					if err := vm.AddProcess(0, &burnProc{instr: alu}); !errors.Is(err, ErrVCPUFull) {
						t.Fatalf("AddProcess on a full vCPU = %v, want ErrVCPUFull", err)
					}
					continue
				}
				p, r := newPair(arg)
				if err := vm.AddProcess(0, p); err != nil {
					t.Fatal(err)
				}
				ref.AddProcess(r)
			case setDef:
				if len(ref.procs) == 2 && !ref.defended {
					continue // the reference would hold a third process
				}
				p, r := newPair(arg)
				if err := vm.SetDefense(0, p); err != nil {
					t.Fatal(err)
				}
				ref.SetDefense(r)
			case step:
				tick++
				budget := 1 + int(arg)*8
				w.cfg.TickBudget = budget
				before := mDefenseSkipped.Value()
				w.Step()
				skipped := mDefenseSkipped.Value() - before
				g := &GuestExecutor{core: w.cores[vc.physCore], ctx: vc.ctx, budget: budget, tick: w.tick}
				lastRan := ref.step(g)
				if got, want := skipped == 1, len(ref.procs) == 2 && !lastRan; got != want {
					t.Fatalf("tick %d (budget %d): slots skipped the defense %v, reference skipped its second entry %v",
						tick, budget, got, want)
				}
				for i, pr := range pairs {
					if s, r := pr[0], pr[1]; s.steps != r.steps || s.total != r.total {
						t.Fatalf("tick %d (budget %d): process %d stepped %d times and retired %d on the slots, %d and %d on the reference",
							tick, budget, i, s.steps, s.total, r.steps, r.total)
					}
				}
			}
		}
	})
}
