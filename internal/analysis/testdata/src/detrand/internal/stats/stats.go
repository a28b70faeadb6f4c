// Package stats is a deterministic package (path suffix internal/stats)
// that launders nondeterminism through the util helper package — the
// pattern a per-file scan cannot see.
package stats

import (
	"os"

	"fixture/util"
)

// Mean reaches time.Now two hops away: Mean -> util.Scale -> util.tick.
func Mean(xs []float64) float64 {
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs)) * util.Scale()
}

// Env reads the environment directly in the deterministic package.
func Env() string {
	return os.Getenv("AEGIS_SEED") // want "os.Getenv read in deterministic package stats; outputs must be pure functions of (seed, config)"
}

// Jitter reaches a function-value call the graph cannot resolve.
func Jitter() float64 {
	return util.Apply(nil)
}

// Allowed prunes the edge into util.Stamp with a reasoned suppression:
// Stamp's clock read must produce no diagnostic.
func Allowed() float64 {
	//aegis:allow(detrand) Stamp feeds a latency histogram only; timing never influences computed values
	return util.Stamp()
}
