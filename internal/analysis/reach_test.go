package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachSupport names the test-support packages: they exist to be called
// from other packages' tests, which the loader does not see, so every
// function in them is a root.
var reachSupport = []string{"internal/faultinject/proptest", "internal/daemon/daemontest"}

// wellKnownMethods are the method shapes (methodKey form) the standard
// library discovers by type assertion on values the module hands it as
// any or error: error, fmt.Stringer and the json marshalers. Those
// assertions happen outside the module, so a module method of one of
// these shapes is a root. The table lists only shapes the module
// declares; a new one goes in with its first implementation.
var wellKnownMethods = map[string]bool{
	"Error func() string":                true,
	"String func() string":               true,
	"MarshalJSON func() ([]byte, error)": true,
	"UnmarshalJSON func([]byte) error":   true,
}

// reacher computes which module functions some root can reach.
//
// Roots: every main, every init, every package-level variable initialiser,
// the exported functions and methods of the module's root package, every
// function of the support packages, and every method of a well-known
// shape. Edges: any reference to a function or method, called or taken
// as a value (a superset of the call graph's exact edges); interface
// dispatch to every module method of the same name and signature anywhere
// in the program (not only in the caller's import closure, which is where
// the lint call graph stops — see callgraph.go); and, for each non-empty
// interface the module passes values into through a standard-library
// parameter or struct field (sort.Interface, types.Importer, ...), the
// matching methods of every module type implementing it.
type reacher struct {
	module  string
	graph   *CallGraph
	methods map[string][]*Node
	named   []*types.Named
	sinks   map[types.Type]bool
	reached map[*Node]bool
	queue   []*Node
}

// unreachableFuncs returns every module function with a body that no root
// reaches, sorted by ID.
func unreachableFuncs(pkgs []*Package, module string, support []string) []*Node {
	prog := NewProgram(pkgs)
	r := &reacher{
		module:  module,
		graph:   prog.CallGraph(),
		methods: make(map[string][]*Node),
		sinks:   make(map[types.Type]bool),
		reached: make(map[*Node]bool),
	}
	for _, pkg := range prog.Packages {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 {
				r.named = append(r.named, named)
			}
		}
	}
	for _, n := range r.graph.Nodes() {
		if n.Decl.Recv != nil {
			key := methodKey(n.Fn)
			r.methods[key] = append(r.methods[key], n)
		}
	}
	for _, n := range r.graph.Nodes() {
		if isRoot(n, module, support) {
			r.mark(n)
		}
	}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					r.refs(pkg, gd)
				}
			}
		}
	}
	for len(r.queue) > 0 {
		n := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		r.refs(n.Pkg, n.Decl.Body)
	}
	var dead []*Node
	for _, n := range r.graph.Nodes() {
		if !r.reached[n] {
			dead = append(dead, n)
		}
	}
	return dead
}

func isRoot(n *Node, module string, support []string) bool {
	name, method := n.Decl.Name.Name, n.Decl.Recv != nil
	switch {
	case !method && name == "main" && n.Pkg.Types.Name() == "main",
		!method && name == "init",
		n.Pkg.Path == module && n.Decl.Name.IsExported(),
		method && wellKnownMethods[methodKey(n.Fn)]:
		return true
	}
	for _, s := range support {
		if pathHasSuffix(n.Pkg.Path, s) {
			return true
		}
	}
	return false
}

func (r *reacher) mark(n *Node) {
	if n != nil && !r.reached[n] {
		r.reached[n] = true
		r.queue = append(r.queue, n)
	}
}

func (r *reacher) inModule(pkg *types.Package) bool {
	return pkg != nil && (pkg.Path() == r.module || strings.HasPrefix(pkg.Path(), r.module+"/"))
}

// refs follows every function, method and standard-library field
// referenced under node.
func (r *reacher) refs(pkg *Package, node ast.Node) {
	ast.Inspect(node, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		switch obj := pkg.Info.Uses[id].(type) {
		case *types.Func:
			r.reference(obj.Origin())
		case *types.Var:
			if obj.IsField() && !r.inModule(obj.Pkg()) {
				r.sink(obj.Type())
			}
		}
		return true
	})
}

func (r *reacher) reference(fn *types.Func) {
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type()) {
		for _, m := range r.methods[methodKey(fn)] {
			r.mark(m)
		}
		return
	}
	if n := r.graph.Node(fn); n != nil {
		r.mark(n)
		return
	}
	if !r.inModule(fn.Pkg()) {
		params := sig.Params()
		for i := 0; i < params.Len(); i++ {
			t := params.At(i).Type()
			if sig.Variadic() && i == params.Len()-1 {
				t = t.(*types.Slice).Elem()
			}
			r.sink(t)
		}
	}
}

// sink records a standard-library interface the module can pass values
// into, and marks the matching methods of every module type satisfying it.
func (r *reacher) sink(t types.Type) {
	iface, ok := t.Underlying().(*types.Interface)
	if !ok || iface.NumMethods() == 0 || r.sinks[t] {
		return
	}
	r.sinks[t] = true
	for _, named := range r.named {
		for _, recv := range []types.Type{named, types.NewPointer(named)} {
			if !types.Implements(recv, iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(recv, true, m.Pkg(), m.Name()); obj != nil {
					if fn, ok := obj.(*types.Func); ok {
						r.mark(r.graph.Node(fn.Origin()))
					}
				}
			}
			break
		}
	}
}

// TestRepoHasNoUnreachableFuncs fails on any module function that no
// binary, example, facade entry point or test-support package can reach.
// Code with no production caller is deleted, or — when only its own
// package's tests use it — moved into that package's _test.go.
func TestRepoHasNoUnreachableFuncs(t *testing.T) {
	l, pkgs := loadRepo(t)
	dead := unreachableFuncs(pkgs, l.Module, reachSupport)
	for _, n := range dead {
		pos := n.Pkg.Fset.Position(n.Decl.Pos())
		if rel, err := filepath.Rel(l.Root, pos.Filename); err == nil {
			pos.Filename = rel
		}
		t.Errorf("%s: %s is reached from no root", pos, shortFuncName(n, l.Module))
	}
	if len(dead) > 0 {
		t.Fatalf("%d unreachable function(s); delete them, or move helpers only their own package's tests use into its _test.go", len(dead))
	}
}

// reachTree exercises every root and edge class of unreachableFuncs.
// lib.Run dispatches Step through an interface whose implementation lives
// in impl, outside lib's import closure.
var reachTree = map[string]string{
	"go.mod": "module rmod\n\ngo 1.21\n",
	"facade.go": `package rmod

import "rmod/lib"

func Exported() { lib.FromFacade() }
`,
	"cmd/app/main.go": `package main

import (
	"sort"

	"rmod/impl"
	"rmod/lib"
)

var table = map[string]func(){"v": lib.FromVar}

func init() { lib.FromInit() }

type byLen []string

func (b byLen) Len() int           { return len(b) }
func (b byLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b byLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

func main() {
	lib.Run(impl.Obf{})
	f := lib.T{}.Value
	f()
	sort.Sort(byLen{"a"})
	table["v"]()
}
`,
	"lib/lib.go": `package lib

type Stepper interface{ Step() }

func Run(s Stepper) { s.Step() }

type T struct{}

func (T) Value()  {}
func (T) unused() {}

type Name string

func (n Name) String() string { return string(n) }

func FromVar()    {}
func FromInit()   {}
func FromFacade() {}
func Dead()       { FromVar() }
`,
	"impl/impl.go": `package impl

type Obf struct{}

func (Obf) Step() {}

type Spare struct{}

func (*Spare) Step() {}

func Dead() {}
`,
	"support/proptest/p.go": `package proptest

func Helper() {}
`,
}

func TestUnreachableFuncsRootsAndEdges(t *testing.T) {
	root := writeTree(t, reachTree)
	pkgs, err := NewLoader(root, "rmod").LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, n := range unreachableFuncs(pkgs, "rmod", []string{"support/proptest"}) {
		got = append(got, n.ID())
	}
	// Everything else is reached: main, init, the facade, the var
	// initialiser, the method value, sort.Interface through sort.Sort,
	// Stringer by shape, the support package, and both Step
	// implementations by name-and-signature dispatch from lib.Run.
	want := []string{"(rmod/lib.T).unused", "rmod/impl.Dead", "rmod/lib.Dead"}
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("unreachable = %v; want %v", got, want)
	}
}
