package hot

// Violations here live in helpers the annotated functions reach through
// the call graph, and findings name the call chain.

import (
	"fmt"

	"fixture/dep"
)

// Tick reaches an allocating helper two hops away through step.
//
//aegis:hotpath
func Tick(buf []float64) float64 {
	return step(buf)
}

// step is clean itself but calls into dep, whose Scale formats with fmt.
func step(buf []float64) float64 {
	var s float64
	for _, v := range buf {
		s += v
	}
	return dep.Scale(s)
}

// Apply calls a function value the graph cannot resolve: reported
// conservatively at the call site.
//
//aegis:hotpath
func Apply(fn func(int) int, x int) int {
	return fn(x) // want "calls function value fn on the hot path; the callee cannot be resolved statically"
}

// Op is dispatched through an interface: the rule over-approximates to
// every matching method in the import closure, marking the hop "~>".
type Op interface {
	Do(x int) int
}

//aegis:hotpath
func Run(o Op, x int) int {
	return o.Do(x)
}

// Alloc is the only Do implementation in scope; its map construction is
// reported with the dispatch chain.
type Alloc struct{}

func (Alloc) Do(x int) int {
	m := make(map[int]int) // want "(call chain: hot.Run ~> (hot.Alloc).Do)"
	m[x] = x
	return m[x]
}

// Cold prunes an edge with a reasoned allow: coldHelper's formatting is
// never reported, and the suppression counts as used.
//
//aegis:hotpath
func Cold(x int) int {
	//aegis:allow(hotpath) coldHelper only runs on the error path, which the steady-state benchmark never takes
	return coldHelper(x)
}

func coldHelper(x int) int {
	s := dep.Describe(x)
	return len(s)
}

// Fail shows one allow doing both jobs on its line: it suppresses the
// finding in Fail's own body and prunes the edge into dep.Describe, whose
// formatting is never reported either.
//
//aegis:hotpath
func Fail(x int) error {
	return fmt.Errorf("bad input %s", dep.Describe(x)) //aegis:allow(hotpath) error branch only; the steady state never fails
}
