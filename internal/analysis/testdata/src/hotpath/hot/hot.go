// Fixture for the hotpath rule: only functions annotated //aegis:hotpath,
// and what they call, are checked. This file holds findings in the
// annotated bodies themselves; chain.go holds findings in what they reach.
package hot

import "fmt"

type ring struct {
	buf []float64
	log []string
}

// push violates every banned construct.
//
//aegis:hotpath
func (r *ring) push(v float64) {
	r.buf = append(r.buf, v)  // want "appends to field"
	m := make(map[string]int) // want "constructs a map with make"
	_ = m
	l := map[string]int{"a": 1} // want "constructs a map literal"
	_ = l
	s := fmt.Sprintf("%f", v) // want "calls fmt.Sprintf"
	b := []byte(s)            // want "converts"
	_ = b
	f := func() {} // want "constructs a closure"
	_ = f
}

// pushFast shows the sanctioned shapes: appends to locals/parameters, and
// a suppressed pre-grown receiver append.
//
//aegis:hotpath
func (r *ring) pushFast(v float64, dst []float64) []float64 {
	dst = append(dst, v)
	var local []float64
	local = append(local, v)
	_ = local
	r.log = append(r.log[:0], "x") //aegis:allow(hotpath) fixture: pre-grown capacity, append never reallocates
	return dst
}

// cold is not annotated, so nothing inside it is checked.
func cold(r *ring) string {
	return fmt.Sprintf("%v", r.buf)
}
