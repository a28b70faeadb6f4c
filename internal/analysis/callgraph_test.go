package analysis

import (
	"fmt"
	"strings"
	"testing"
)

// cgTree is a small module exercising every edge class the call graph
// distinguishes: static calls, interface dispatch over-approximation,
// method values, closures, go statements, and recursion.
var cgTree = map[string]string{
	"go.mod": "module cgmod\n\ngo 1.21\n",
	"a/a.go": `package a

type Op interface{ Do(int) int }

type Add struct{}

func (Add) Do(x int) int { return x + 1 }

type Mul struct{}

func (m *Mul) Do(x int) int { return x * 2 }

func Static(x int) int { return helper(x) }

func helper(x int) int { return x }

func Dispatch(o Op, x int) int { return o.Do(x) }

func MethodValue(x int) int {
	f := Add{}.Do
	return f(x)
}

func Closure(x int) int {
	inc := func(v int) int { return helper(v) }
	return inc(x)
}

func Spawn() {
	go helper(1)
}

func Rec(n int) int {
	if n <= 0 {
		return 0
	}
	return Rec(n - 1)
}

func MutA(n int) int {
	if n <= 0 {
		return 0
	}
	return MutB(n - 1)
}

func MutB(n int) int { return MutA(n) }
`,
}

func buildGraph(t *testing.T, root string) (*Program, *CallGraph) {
	t.Helper()
	pkgs, err := NewLoader(root, "cgmod").LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	prog := NewProgram(pkgs)
	return prog, prog.CallGraph()
}

func graphNode(t *testing.T, g *CallGraph, id string) *Node {
	t.Helper()
	for _, n := range g.Nodes() {
		if n.ID() == id {
			return n
		}
	}
	t.Fatalf("no node %q in graph (have %d nodes)", id, len(g.Nodes()))
	return nil
}

func TestCallGraphStaticCall(t *testing.T) {
	_, g := buildGraph(t, writeTree(t, cgTree))
	n := graphNode(t, g, "cgmod/a.Static")
	if len(n.Edges) != 1 || len(n.Dynamic) != 0 {
		t.Fatalf("Static: got %d edges, %d dyn sites; want 1, 0", len(n.Edges), len(n.Dynamic))
	}
	e := n.Edges[0]
	if e.Callee.ID() != "cgmod/a.helper" || e.Dynamic || e.InClosure || e.Async {
		t.Errorf("Static edge = %s dynamic=%v inClosure=%v async=%v; want plain static call of helper",
			e.Callee.ID(), e.Dynamic, e.InClosure, e.Async)
	}
}

func TestCallGraphInterfaceDispatchOverApproximation(t *testing.T) {
	_, g := buildGraph(t, writeTree(t, cgTree))
	n := graphNode(t, g, "cgmod/a.Dispatch")
	// o.Do(x) must over-approximate to every module method matching the
	// interface method's name and signature, value and pointer receivers
	// alike, with every edge marked Dynamic.
	var callees []string
	for _, e := range n.Edges {
		if !e.Dynamic {
			t.Errorf("dispatch edge to %s not marked Dynamic", e.Callee.ID())
		}
		callees = append(callees, e.Callee.ID())
	}
	if len(callees) != 2 {
		t.Fatalf("Dispatch resolved to %v; want both Do implementations", callees)
	}
	joined := strings.Join(callees, " ")
	if !strings.Contains(joined, "cgmod/a.Add") || !strings.Contains(joined, "cgmod/a.Mul") {
		t.Errorf("Dispatch callees = %v; want Add.Do and (*Mul).Do", callees)
	}
}

func TestCallGraphMethodValueIsDynamicSite(t *testing.T) {
	_, g := buildGraph(t, writeTree(t, cgTree))
	n := graphNode(t, g, "cgmod/a.MethodValue")
	// The call of f (a method value) cannot be resolved statically: it is
	// a DynSite, not an edge.
	if len(n.Edges) != 0 {
		t.Errorf("MethodValue has %d edges; want 0 (method-value call is unresolvable)", len(n.Edges))
	}
	if len(n.Dynamic) != 1 || n.Dynamic[0].Expr != "f" {
		t.Fatalf("MethodValue dyn sites = %+v; want one site for f", n.Dynamic)
	}
}

func TestCallGraphClosureEdges(t *testing.T) {
	_, g := buildGraph(t, writeTree(t, cgTree))
	n := graphNode(t, g, "cgmod/a.Closure")
	// helper is called from inside the func literal: the edge exists but
	// is flagged InClosure. The call of inc itself is a DynSite.
	var helperEdge *Edge
	for i := range n.Edges {
		if n.Edges[i].Callee.ID() == "cgmod/a.helper" {
			helperEdge = &n.Edges[i]
		}
	}
	if helperEdge == nil || !helperEdge.InClosure {
		t.Errorf("Closure -> helper edge = %+v; want present with InClosure", helperEdge)
	}
	if len(n.Dynamic) != 1 || !strings.Contains(n.Dynamic[0].Expr, "inc") {
		t.Errorf("Closure dyn sites = %+v; want one site for inc", n.Dynamic)
	}
}

func TestCallGraphAsyncEdge(t *testing.T) {
	_, g := buildGraph(t, writeTree(t, cgTree))
	n := graphNode(t, g, "cgmod/a.Spawn")
	if len(n.Edges) != 1 || !n.Edges[0].Async {
		t.Fatalf("Spawn edges = %+v; want one Async edge to helper", n.Edges)
	}
}

func TestCallGraphRecursion(t *testing.T) {
	_, g := buildGraph(t, writeTree(t, cgTree))
	rec := graphNode(t, g, "cgmod/a.Rec")
	if len(rec.Edges) != 1 || rec.Edges[0].Callee != rec {
		t.Errorf("Rec edges = %+v; want one self-edge", rec.Edges)
	}
	// Mutual recursion: both edges exist and the reverse adjacency agrees.
	ma, mb := graphNode(t, g, "cgmod/a.MutA"), graphNode(t, g, "cgmod/a.MutB")
	if len(ma.Edges) != 1 || ma.Edges[0].Callee != mb {
		t.Errorf("MutA edges = %+v; want MutB", ma.Edges)
	}
	if len(mb.Edges) != 1 || mb.Edges[0].Callee != ma {
		t.Errorf("MutB edges = %+v; want MutA", mb.Edges)
	}
	found := false
	for _, ce := range g.Callers(ma) {
		if ce.Caller == mb {
			found = true
		}
	}
	if !found {
		t.Error("Callers(MutA) does not list MutB")
	}
}

// dumpGraph renders a graph into a canonical string (node IDs, edge
// callees with flags and positions, dyn sites) for determinism checks.
func dumpGraph(g *CallGraph) string {
	var b strings.Builder
	for _, n := range g.Nodes() {
		fmt.Fprintf(&b, "%s\n", n.ID())
		for _, e := range n.Edges {
			fmt.Fprintf(&b, "  -> %s dyn=%v clo=%v async=%v at %s\n",
				e.Callee.ID(), e.Dynamic, e.InClosure, e.Async, n.Pkg.Fset.Position(e.Pos))
		}
		for _, d := range n.Dynamic {
			fmt.Fprintf(&b, "  ?? %s clo=%v async=%v at %s\n",
				d.Expr, d.InClosure, d.Async, n.Pkg.Fset.Position(d.Pos))
		}
	}
	return b.String()
}

func TestCallGraphDeterminism(t *testing.T) {
	root := writeTree(t, cgTree)
	_, g1 := buildGraph(t, root)
	_, g2 := buildGraph(t, root)
	if d1, d2 := dumpGraph(g1), dumpGraph(g2); d1 != d2 {
		t.Errorf("two builds over the same tree differ:\n--- first\n%s--- second\n%s", d1, d2)
	}
}

// TestAnalyzeDeterministicDiagnostics pins diagnostic order: two
// independent loads and analyses of the same fixture must render the
// exact same diagnostics in the exact same order.
func TestAnalyzeDeterministicDiagnostics(t *testing.T) {
	render := func() []string {
		pkgs := loadFixture(t, "hotpathdeep")
		diags := Analyze(pkgs, AllRules())
		out := make([]string, len(diags))
		for i, d := range diags {
			out[i] = d.String()
		}
		return out
	}
	a, b := render(), render()
	if len(a) != len(b) {
		t.Fatalf("diagnostic count differs across runs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("diagnostic %d differs:\n%s\n%s", i, a[i], b[i])
		}
	}
}

// ID returns the node's stable identity: the type-qualified full name of
// its function (e.g. "(*path/to/pkg.T).Method" or "path/to/pkg.F").
func (n *Node) ID() string { return n.id }

// TestCallGraphDispatchStopsAtImportClosure pins the documented limit of
// interface dispatch: lib.Run calls Stepper.Step, but the only
// implementation lives in impl, which imports lib rather than the other
// way round, so the graph has no edge from Run to it. The main package
// wires the two together; whole-program reachability has to dispatch past
// the closure on its own.
func TestCallGraphDispatchStopsAtImportClosure(t *testing.T) {
	_, g := buildGraph(t, writeTree(t, map[string]string{
		"go.mod": "module cgmod\n\ngo 1.21\n",
		"lib/lib.go": `package lib

type Stepper interface{ Step() }

func Run(s Stepper) { s.Step() }
`,
		"impl/impl.go": `package impl

type Obf struct{}

func (Obf) Step() {}
`,
		"cmd/app/main.go": `package main

import (
	"cgmod/impl"
	"cgmod/lib"
)

func main() { lib.Run(impl.Obf{}) }
`,
	}))
	graphNode(t, g, "(cgmod/impl.Obf).Step")
	if run := graphNode(t, g, "cgmod/lib.Run"); len(run.Edges) != 0 {
		t.Errorf("lib.Run edges = %+v; want none (impl is outside lib's import closure)", run.Edges)
	}
}
