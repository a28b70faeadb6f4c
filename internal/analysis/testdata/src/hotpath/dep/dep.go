// Package dep holds helpers reached from the hot package's annotated
// functions; findings here are reported with full cross-package call
// chains.
package dep

import "fmt"

// Scale is the two-hop sink: hot.Tick -> hot.step -> dep.Scale.
func Scale(v float64) float64 {
	if v < 0 {
		_ = fmt.Sprintf("negative sum %v", v) // want "calls fmt.Sprintf, which allocates; move formatting off the steady-state path or suppress a cold branch with a reason on the hot path (call chain: hot.Tick -> hot.step -> dep.Scale)"
	}
	return v * 2
}

// Describe allocates, but is only reached through pruned (allowed)
// edges, so it must produce no diagnostic.
func Describe(x int) string {
	return fmt.Sprintf("x=%d", x)
}
