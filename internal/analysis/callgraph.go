package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// This file builds the module-wide call graph behind the interprocedural
// checks (hotpath, detrand, lockjournal) and the one closure walk that
// hotpath and detrand share. The graph is exact where
// Go lets it be and conservative everywhere else:
//
//   - A call whose callee resolves statically to a function or method
//     declared in the module becomes one exact edge.
//   - A call through an interface method becomes one over-approximated
//     edge to every module method with the same name and an identical
//     signature that is declared inside the calling package's import
//     closure. These edges carry Dynamic=true, and the closure walk names
//     the dispatch in their call chains. The closure restriction keeps
//     per-package analysis results independent of which other packages
//     happen to be loaded, so a single-directory run reports the same
//     diagnostics for that package as ./... does. It is not sound: an
//     importer can hand the call site a concrete type whose package the
//     caller never imports. sev.World.Step calls Process.Step, yet
//     neither obfuscator nor workload is in sev's closure, so no edge
//     reaches (*obfuscator.Obfuscator).Step or (*workload.Runner).Step;
//     the daemon and the facade wire those types in from above (DESIGN.md
//     lists what this hides). A whole-program question (reachability,
//     say) must dispatch to every matching method instead.
//   - A call of a function-typed value (a method value, a stored closure,
//     a func field or parameter) cannot be resolved at all; the site is
//     recorded as a DynSite and the closure walk reports it
//     conservatively — the callee could do anything — unless the site
//     carries an //aegis:allow for the reporting rule.
//
// Calls lexically inside a func literal are attributed to the enclosing
// declared function with InClosure=true: hotpath's walk skips them (the
// body scan already flags closure construction on hot paths, and a
// literal's body is cold until invoked), detrand's follows them (the
// closure will run eventually), and lockjournal treats them as escaping
// the caller's lockset (the literal may run on another goroutine). Edges
// launched by a go statement carry Async=true: hotpath skips them,
// detrand follows them, and they never extend a lockset.
//
// Node and edge order is deterministic: nodes sort by their full
// type-qualified name, edges by (callee name, position), so two runs over
// the same tree produce identical graphs and identical diagnostic order.

// Node is one declared function or method in the module, with its
// outgoing call edges.
type Node struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	// Edges are the node's resolved calls, sorted by (callee, position)
	// and deduplicated.
	Edges []Edge
	// Dynamic are the node's unresolvable call sites (calls of
	// function-typed values), in source order.
	Dynamic []DynSite

	id string // Fn.FullName(), cached for sorting
}

// Edge is one call from a node to a module function.
type Edge struct {
	Callee *Node
	Pos    token.Pos
	// Dynamic marks an interface-dispatch over-approximation: the callee
	// is one of possibly many methods matching the interface method's
	// name and signature.
	Dynamic bool
	// InClosure marks a call site lexically inside a func literal of the
	// caller.
	InClosure bool
	// Async marks a call launched by a go statement.
	Async bool
}

// DynSite is a call of a function-typed value — a site the graph cannot
// resolve even conservatively.
type DynSite struct {
	Pos       token.Pos
	Expr      string // source text of the called expression
	InClosure bool
	Async     bool
}

// CallGraph is the module-wide graph over every loaded package.
type CallGraph struct {
	nodes map[*types.Func]*Node
	// callers is the reverse adjacency: for each node, every edge
	// pointing at it (the edge's owner is recorded alongside).
	callers map[*Node][]CallerEdge
	sorted  []*Node
}

// CallerEdge is one incoming call as seen from the callee.
type CallerEdge struct {
	Caller *Node
	Edge   Edge
}

// Program is a set of loaded packages analyzed together, with the shared
// call graph and per-package import closures built on demand.
type Program struct {
	Packages []*Package

	byPath   map[string]*Package
	once     sync.Once
	graph    *CallGraph
	closures map[*Package]map[string]bool
}

// NewProgram indexes the given packages for whole-module analysis.
// Packages are sorted by import path so iteration order is deterministic
// regardless of load order.
func NewProgram(pkgs []*Package) *Program {
	sorted := make([]*Package, len(pkgs))
	copy(sorted, pkgs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	byPath := make(map[string]*Package, len(sorted))
	for _, p := range sorted {
		byPath[p.Path] = p
	}
	return &Program{Packages: sorted, byPath: byPath}
}

// PackageByPath returns the loaded package with the given import path.
func (prog *Program) PackageByPath(path string) *Package { return prog.byPath[path] }

// Closure returns the set of module import paths reachable from pkg
// (including pkg itself) among the program's loaded packages.
func (prog *Program) Closure(pkg *Package) map[string]bool {
	if prog.closures == nil {
		prog.closures = make(map[*Package]map[string]bool)
	}
	if c, ok := prog.closures[pkg]; ok {
		return c
	}
	closure := make(map[string]bool)
	var visit func(p *Package)
	visit = func(p *Package) {
		if closure[p.Path] {
			return
		}
		closure[p.Path] = true
		for _, imp := range p.Types.Imports() {
			if dep, ok := prog.byPath[imp.Path()]; ok {
				visit(dep)
			}
		}
	}
	visit(pkg)
	prog.closures[pkg] = closure
	return closure
}

// CallGraph builds (once) and returns the program's call graph.
func (prog *Program) CallGraph() *CallGraph {
	prog.once.Do(func() { prog.graph = buildCallGraph(prog) })
	return prog.graph
}

// Node returns the graph node for fn, or nil when fn is not a module
// function with a body.
func (g *CallGraph) Node(fn *types.Func) *Node { return g.nodes[fn] }

// Nodes returns every node sorted by ID.
func (g *CallGraph) Nodes() []*Node { return g.sorted }

// Callers returns the incoming edges of n, sorted by (caller ID,
// position).
func (g *CallGraph) Callers(n *Node) []CallerEdge { return g.callers[n] }

// methodKey indexes module methods for interface-dispatch
// over-approximation: name plus the canonical signature string with the
// receiver stripped (types.Identical ignores receivers, and so must the
// index).
func methodKey(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	// Rebuild the tuples with unnamed vars: Signature.String renders
	// parameter names, and an interface method's names need not match an
	// implementation's ("Do(int)" must key equal to "Do(x int)").
	unnamed := func(t *types.Tuple) *types.Tuple {
		if t == nil {
			return nil
		}
		vars := make([]*types.Var, t.Len())
		for i := 0; i < t.Len(); i++ {
			vars[i] = types.NewVar(token.NoPos, nil, "", t.At(i).Type())
		}
		return types.NewTuple(vars...)
	}
	noRecv := types.NewSignatureType(nil, nil, nil, unnamed(sig.Params()), unnamed(sig.Results()), sig.Variadic())
	return fn.Name() + " " + noRecv.String()
}

func buildCallGraph(prog *Program) *CallGraph {
	g := &CallGraph{
		nodes:   make(map[*types.Func]*Node),
		callers: make(map[*Node][]CallerEdge),
	}

	// Pass 1: one node per declared function/method with a body, plus the
	// method index for dispatch over-approximation.
	methods := make(map[string][]*Node)
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &Node{Fn: fn, Decl: fd, Pkg: pkg, id: fn.FullName()}
				g.nodes[fn] = n
				if fd.Recv != nil {
					methods[methodKey(fn)] = append(methods[methodKey(fn)], n)
				}
			}
		}
	}

	// Pass 2: edges.
	for _, pkg := range prog.Packages {
		closure := prog.Closure(pkg)
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				caller := g.nodes[pkg.Info.Defs[fd.Name].(*types.Func)]
				if caller == nil {
					continue
				}
				collectEdges(g, methods, closure, pkg, caller, fd.Body)
			}
		}
	}

	// Deterministic order everywhere.
	for _, n := range g.nodes {
		sortEdges(n.Edges)
		g.sorted = append(g.sorted, n)
	}
	sort.Slice(g.sorted, func(i, j int) bool { return g.sorted[i].id < g.sorted[j].id })
	for _, n := range g.sorted {
		for _, e := range n.Edges {
			g.callers[e.Callee] = append(g.callers[e.Callee], CallerEdge{Caller: n, Edge: e})
		}
	}
	return g
}

func sortEdges(edges []Edge) {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Callee.id != edges[j].Callee.id {
			return edges[i].Callee.id < edges[j].Callee.id
		}
		return edges[i].Pos < edges[j].Pos
	})
}

// collectEdges walks one function body recording edges and dynamic sites
// on caller. ctx tracks closure nesting and go-statement launching.
func collectEdges(g *CallGraph, methods map[string][]*Node, closure map[string]bool, pkg *Package, caller *Node, body *ast.BlockStmt) {
	type frame struct{ inClosure, async bool }
	var walk func(n ast.Node, fr frame)
	// asyncCalls marks call expressions that are the immediate operand of
	// a go statement.
	asyncCalls := make(map[*ast.CallExpr]bool)
	walk = func(n ast.Node, fr frame) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				asyncCalls[n.Call] = true
			case *ast.FuncLit:
				walk(n.Body, frame{inClosure: true, async: fr.async})
				return false
			case *ast.CallExpr:
				addCall(g, methods, closure, pkg, caller, n, fr.inClosure, fr.async || asyncCalls[n])
			}
			return true
		})
	}
	walk(body, frame{})
}

// addCall records one call expression on caller: an exact edge, a set of
// over-approximated dispatch edges, or a dynamic site.
func addCall(g *CallGraph, methods map[string][]*Node, closure map[string]bool, pkg *Package, caller *Node, call *ast.CallExpr, inClosure, async bool) {
	fun := ast.Unparen(call.Fun)

	// Conversions and builtins are not calls the graph tracks.
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	if id, ok := fun.(*ast.Ident); ok {
		if _, isB := pkg.Info.Uses[id].(*types.Builtin); isB {
			return
		}
	}

	if fn := calleeFunc(pkg.Info, call); fn != nil {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if types.IsInterface(sig.Recv().Type()) {
				// Interface dispatch: over-approximate to every module
				// method matching (name, signature) in the caller's
				// import closure.
				for _, target := range methods[methodKey(fn)] {
					if closure[target.Pkg.Path] {
						caller.Edges = append(caller.Edges, Edge{
							Callee: target, Pos: call.Pos(),
							Dynamic: true, InClosure: inClosure, Async: async,
						})
					}
				}
				return
			}
		}
		if target := g.nodes[fn]; target != nil {
			caller.Edges = append(caller.Edges, Edge{
				Callee: target, Pos: call.Pos(), InClosure: inClosure, Async: async,
			})
		}
		return
	}

	// Not a static callee, not a builtin, not a conversion: if the called
	// expression has a function type, it is a dynamic call we cannot
	// resolve (method value, stored closure, func field/param).
	if tv, ok := pkg.Info.Types[call.Fun]; ok {
		if _, isSig := tv.Type.Underlying().(*types.Signature); isSig {
			caller.Dynamic = append(caller.Dynamic, DynSite{
				Pos: call.Pos(), Expr: types.ExprString(fun), InClosure: inClosure, Async: async,
			})
		}
	}
}

// shortName strips the module prefix from a type-qualified function name
// so diagnostics read "(*internal/daemon.Daemon).runTick" rather than the
// full import path.
func shortName(fullName, module string) string {
	name := strings.ReplaceAll(fullName, module+"/", "")
	return strings.ReplaceAll(name, module+".", lastElem(module)+".")
}

// shortFuncName renders a node's function compactly for call-chain
// diagnostics.
func shortFuncName(n *Node, module string) string {
	return shortName(n.id, module)
}

// chainHop is one step of a rendered call chain: the node reached and
// whether the edge into it was a conservative interface-dispatch
// over-approximation.
type chainHop struct {
	n       *Node
	dynamic bool
}

// chainString renders a call chain root → … → sink for diagnostics.
// Exact edges render as " -> "; conservative interface-dispatch edges as
// " ~> " so a reader can tell which hops are over-approximated (and
// therefore candidates for an //aegis:allow at the call site).
func chainString(chain []chainHop, module string) string {
	var b strings.Builder
	for i, h := range chain {
		if i > 0 {
			if h.dynamic {
				b.WriteString(" ~> ")
			} else {
				b.WriteString(" -> ")
			}
		}
		b.WriteString(shortFuncName(h.n, module))
	}
	return b.String()
}

// closureWalk is the one walk over a root's static call closure, shared
// by hotpath and detrand. It reaches every module function breadth
// first, so each along a shortest call chain from the root, and reports
// each finding once per package analysis with that chain appended. An
// //aegis:allow for the running rule at a call site prunes the edge
// there, or silences the function-value call there.
type closureWalk struct {
	pass     *Pass
	reported map[token.Pos]bool
	// deferred follows edges inside func literals and edges launched by
	// go statements, and reports function-value calls there too.
	deferred bool
	// stop, when set, keeps the walk out of a callee.
	stop func(callee *Node) bool
}

func newClosureWalk(pass *Pass, deferred bool, stop func(callee *Node) bool) *closureWalk {
	return &closureWalk{pass: pass, reported: make(map[token.Pos]bool), deferred: deferred, stop: stop}
}

// skips reports whether the walk leaves out a call site with these flags.
func (w *closureWalk) skips(inClosure, async bool) bool {
	return !w.deferred && (inClosure || async)
}

// walk calls visit once for every function root reaches, root excluded,
// with the call chain from root to it.
func (w *closureWalk) walk(root *Node, visit func(n *Node, chain []chainHop)) {
	type item struct {
		n     *Node
		chain []chainHop
	}
	visited := map[*Node]bool{root: true}
	queue := []item{{root, []chainHop{{n: root}}}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		for _, e := range it.n.Edges {
			if w.skips(e.InClosure, e.Async) || (w.stop != nil && w.stop(e.Callee)) ||
				w.pass.AllowedAt(e.Pos) || visited[e.Callee] {
				continue
			}
			visited[e.Callee] = true
			chain := make([]chainHop, len(it.chain), len(it.chain)+1)
			copy(chain, it.chain) // chains are shared across branches
			chain = append(chain, chainHop{e.Callee, e.Dynamic})
			visit(e.Callee, chain)
			queue = append(queue, item{e.Callee, chain})
		}
	}
}

// report records msg at pos, reached along chain, unless the walk
// already reported there.
func (w *closureWalk) report(pos token.Pos, chain []chainHop, msg string) {
	if w.reported[pos] {
		return
	}
	w.reported[pos] = true
	w.pass.Reportf(pos, "%s (call chain: %s)", msg, chainString(chain, w.pass.Pkg.Module))
}

// reportDynSites reports n's calls of function values, whose callees the
// graph cannot resolve, with msg naming the called expression.
func (w *closureWalk) reportDynSites(n *Node, chain []chainHop, msg func(expr string) string) {
	for _, ds := range n.Dynamic {
		if w.skips(ds.InClosure, ds.Async) || w.reported[ds.Pos] || w.pass.AllowedAt(ds.Pos) {
			continue
		}
		w.report(ds.Pos, chain, msg(ds.Expr))
	}
}
