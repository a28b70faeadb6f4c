//go:build !race

package telemetry

import "testing"

// TestTimerAllocatesNothing gates the timer on both sides of the switch:
// it is what a live daemon's obfuscator tick pays per plan. Excluded
// under -race, whose instrumentation allocates.
func TestTimerAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	h := r.Stage("tick")
	for _, on := range []bool{true, false} {
		r.SetEnabled(on)
		before := h.Count()
		if avg := testing.AllocsPerRun(256, func() { h.Start().Stop() }); avg != 0 {
			t.Errorf("enabled=%v: %v allocs per timed stage, want 0", on, avg)
		}
		if got := h.Count() - before; on && got == 0 || !on && got != 0 {
			t.Errorf("enabled=%v: %d observations", on, got)
		}
	}
}
