// Package util is a non-deterministic helper package: sinks here are only
// violations when a deterministic package reaches them through the call
// graph.
package util

import "time"

// Scale launders a clock read behind two hops.
func Scale() float64 {
	return tick()
}

func tick() float64 {
	return float64(time.Now().UnixNano()) // want "deterministic package stats transitively reaches time.Now (call chain: internal/stats.Mean -> util.Scale -> util.tick)"
}

// Stamp reads the clock but is only reached through a pruned (allowed)
// edge, so it must produce no diagnostic.
func Stamp() float64 {
	return float64(time.Now().UnixNano())
}

// Apply calls a function value: determinism cannot be established, so the
// site is reported conservatively when reached from a deterministic
// package.
func Apply(f func() float64) float64 {
	if f == nil {
		return 0
	}
	return f() // want "deterministic package stats reaches a call of function value f whose determinism cannot be established (call chain: internal/stats.Jitter -> util.Apply)"
}
