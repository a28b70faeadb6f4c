package obfuscator

import (
	"testing"

	"github.com/repro/aegis/internal/rng"
)

// memoStep is one tick of a d* call pattern: the gap from the previous
// tick (from tick 0 for the first step), whether the tick Commits (a
// starved tick does not), and whether the committed value is the clip
// bound instead of the clipped draw (an injected draw extreme).
type memoStep struct {
	gap     int64
	commit  bool
	extreme bool
}

// dstarMemoMismatch drives a d* mechanism through the obfuscator's call
// pattern (Noise, then Commit of the clipped value unless the tick is
// starved) and checks every Noise against an unbounded-map memo. A twin
// mechanism on the same stream that never Commits yields the bare r_t,
// so the reference is ref[G(t)] + r_t. It returns the first tick whose
// Noise differs.
func dstarMemoMismatch(tb testing.TB, seed uint64, steps []memoStep) (tick int64, got, want float64, bad bool) {
	tb.Helper()
	const bound = 2000
	m, err := NewDStarMechanism(1, 100, rng.New(seed).Split("memo"))
	if err != nil {
		tb.Fatal(err)
	}
	twin, err := NewDStarMechanism(1, 100, rng.New(seed).Split("memo"))
	if err != nil {
		tb.Fatal(err)
	}
	ref := map[int64]float64{0: 0}
	var t int64
	for _, s := range steps {
		t += s.gap
		got := m.Noise(t, 0)
		want := ref[G(t)] + twin.Noise(t, 0)
		if got != want {
			return t, got, want, true
		}
		if !s.commit {
			continue
		}
		applied, _, _ := clampDraw(got, bound)
		if s.extreme {
			applied = bound
		}
		m.Commit(t, applied)
		ref[t] = applied
	}
	return 0, 0, 0, false
}

// TestDStarMemoMatchesUnboundedMemo runs d* for 65536 consecutive ticks,
// with ~10% of the Commits skipped as starved ticks, and requires every
// draw to reuse exactly the noise an unbounded memo would hold for G(t).
// A memo that evicts by age drops tick 4096 before tick 8192 reads it.
func TestDStarMemoMatchesUnboundedMemo(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		sched := rng.New(seed).Split("schedule")
		steps := make([]memoStep, 1<<16)
		for i := range steps {
			steps[i] = memoStep{gap: 1, commit: sched.Float64() >= 0.1}
		}
		if tick, got, want, bad := dstarMemoMismatch(t, seed, steps); bad {
			t.Errorf("seed %d: Noise(%d) = %v, want %v from the parent G(%d) = %d",
				seed, tick, got, want, tick, G(tick))
		}
	}
}

// FuzzDStarMemo checks the d* memo against the unbounded reference under
// arbitrary increasing tick gaps (scaled by stride, so ticks reach every
// level of the tree) and arbitrary commit, skip and draw-extreme
// schedules, starting at tick 0.
func FuzzDStarMemo(f *testing.F) {
	f.Add(uint64(1), uint16(1), []byte{0x00, 0x80, 0x40, 0x01})
	f.Add(uint64(2), uint16(512), []byte{0x0f, 0x03, 0x81, 0x00, 0x47})
	f.Add(uint64(3), uint16(4096), []byte{0x00})
	f.Fuzz(func(t *testing.T, seed uint64, stride uint16, schedule []byte) {
		if len(schedule) == 0 {
			return
		}
		steps := make([]memoStep, 1<<13)
		for i := range steps {
			b := schedule[i%len(schedule)]
			steps[i] = memoStep{
				gap:     1 + int64(b&0x0f)*int64(stride),
				commit:  b&0x80 == 0,
				extreme: b&0x40 != 0,
			}
		}
		steps[0].gap = 0
		if tick, got, want, bad := dstarMemoMismatch(t, seed, steps); bad {
			t.Fatalf("Noise(%d) = %v, want %v from the parent G(%d) = %d",
				tick, got, want, tick, G(tick))
		}
	})
}
