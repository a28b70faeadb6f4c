package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// hotpathRule is the static twin of the dynamic allocation gate
// (alloc_gate_test.go / `make bench-alloc`): a function annotated with a
// //aegis:hotpath doc-comment line, and everything it reaches through the
// call graph, must stay allocation-free in steady state, so the rule bans
// the allocation shapes the zero-alloc rebuild of the hot paths
// eliminated:
//
//   - fmt formatting calls (Sprintf, Sprint, Sprintln, Errorf, Appendf,
//     Append, Appendln) — cold error branches may be suppressed with a
//     reason;
//   - []byte <-> string conversions, which copy;
//   - map construction (make or composite literal) and closure literals,
//     which heap-allocate;
//   - append whose destination is not a variable local to the function
//     (a field, a package-level var, or a captured variable): growth of
//     an escaping slice allocates, and the zero-alloc kernels instead
//     reuse caller-owned or receiver-owned scratch;
//   - calls of function values, which the call graph cannot resolve, so
//     the callee may allocate.
//
// The closure walk (callgraph.go) skips edges inside func literals (the
// literal's body is cold until invoked, and constructing it is already a
// finding) and edges launched by go statements (a spawned goroutine's
// work is not the hot path's synchronous work). It follows interface
// dispatch, marked "~>" in the reported chain. An annotated callee is
// walked through but not scanned again: it is a root of its own. An
// //aegis:allow(hotpath) on a line suppresses the finding there and
// prunes the call edge there. A finding in a reached function is
// reported once, with the shortest call chain from the first root (in
// file order) that reaches it.
//
// The annotation is load-bearing documentation: every function gated by a
// TestZeroAlloc* benchmark carries it, so the dynamic gate and this rule
// police the same set.
var hotpathRule = &Rule{
	Name: "hotpath",
	Doc:  "functions annotated //aegis:hotpath, and all they call, must avoid allocating constructs",
	Run:  runHotpath,
}

// fmtAllocFuncs are fmt functions that allocate their result.
var fmtAllocFuncs = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true, "Errorf": true,
	"Appendf": true, "Append": true, "Appendln": true,
}

// HotpathAnnotation is the doc-comment directive marking a zero-alloc
// steady-state function.
const HotpathAnnotation = "//aegis:hotpath"

// isHotpathAnnotated reports whether the function declaration carries the
// //aegis:hotpath directive in its doc comment.
func isHotpathAnnotated(fd *ast.FuncDecl) bool {
	return hasDirective(fd, HotpathAnnotation)
}

// hasDirective reports whether the function declaration carries the given
// //aegis:* directive in its doc comment.
func hasDirective(fd *ast.FuncDecl, directive string) bool {
	if fd == nil || fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return true
		}
	}
	return false
}

func runHotpath(pass *Pass) {
	g := pass.Prog.CallGraph()
	module := pass.Pkg.Module
	w := newClosureWalk(pass, false, nil)
	dynSites := func(n *Node, chain []chainHop) {
		name := shortFuncName(n, module)
		w.reportDynSites(n, chain, func(expr string) string {
			return name + " calls function value " + expr + " on the hot path; the callee cannot be resolved statically and may allocate"
		})
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotpathAnnotated(fd) {
				continue
			}
			scanAllocOps(pass.Info, fd, func(pos token.Pos, op string) {
				pass.Reportf(pos, "hot path %s %s", fd.Name.Name, op)
			})
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			root := g.Node(fn)
			if root == nil {
				continue
			}
			dynSites(root, []chainHop{{n: root}})
			w.walk(root, func(n *Node, chain []chainHop) {
				if isHotpathAnnotated(n.Decl) {
					return
				}
				name := shortFuncName(n, module)
				scanAllocOps(n.Pkg.Info, n.Decl, func(pos token.Pos, op string) {
					w.report(pos, chain, name+" "+op+" on the hot path")
				})
				dynSites(n, chain)
			})
		}
	}
}

// scanAllocOps walks one function body reporting every allocating
// construct the hot-path contract bans, as (position, op description)
// pairs. Func-literal bodies are not descended: the literal itself is
// reported, and its body is cold until invoked.
func scanAllocOps(info *types.Info, fd *ast.FuncDecl, report func(pos token.Pos, op string)) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			report(n.Pos(), "constructs a closure; closures heap-allocate their captures")
			return false // the literal's body is cold until invoked
		case *ast.CompositeLit:
			if tv, ok := info.Types[n]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					report(n.Pos(), "constructs a map literal; maps heap-allocate")
				}
			}
		case *ast.CallExpr:
			scanAllocCall(info, fd, n, report)
		}
		return true
	})
}

func scanAllocCall(info *types.Info, fd *ast.FuncDecl, call *ast.CallExpr, report func(pos token.Pos, op string)) {
	// fmt formatting calls.
	if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil &&
		fn.Pkg().Path() == "fmt" && fmtAllocFuncs[fn.Name()] {
		report(call.Pos(), fmt.Sprintf("calls fmt.%s, which allocates; move formatting off the steady-state path or suppress a cold branch with a reason", fn.Name()))
		return
	}
	// make(map[...]...).
	if isBuiltin(info, call, "make") && len(call.Args) > 0 {
		if tv, ok := info.Types[call.Args[0]]; ok {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				report(call.Pos(), "constructs a map with make; maps heap-allocate")
			}
		}
		return
	}
	// append to a destination that escapes the function.
	if isBuiltin(info, call, "append") && len(call.Args) > 0 {
		if dst, desc := nonLocalAppendDst(info, fd, call.Args[0]); dst {
			report(call.Pos(), fmt.Sprintf("appends to %s %s; growth allocates — reuse receiver- or caller-owned scratch instead", desc, types.ExprString(call.Args[0])))
		}
		return
	}
	// []byte <-> string conversions.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if argTV, ok := info.Types[call.Args[0]]; ok {
			to, from := tv.Type, argTV.Type
			if (isString(to) && isByteSlice(from)) || (isByteSlice(to) && isString(from)) {
				report(call.Pos(), fmt.Sprintf("converts %s to %s, which copies", from, to))
			}
		}
	}
}

// nonLocalAppendDst reports whether the append destination lives outside
// the enclosing function (field, package-level, or captured variable) and
// describes it. Slice and paren expressions are unwrapped so the
// `append(x[:0], ...)` reslice idiom is judged by its base.
func nonLocalAppendDst(info *types.Info, fd *ast.FuncDecl, dst ast.Expr) (bool, string) {
	for {
		switch d := dst.(type) {
		case *ast.ParenExpr:
			dst = d.X
		case *ast.SliceExpr:
			dst = d.X
		case *ast.Ident:
			v, ok := info.Uses[d].(*types.Var)
			if !ok {
				if _, ok := info.Defs[d]; ok {
					return false, "" // := defines a fresh local
				}
				return false, ""
			}
			if v.Pos() >= fd.Pos() && v.Pos() < fd.End() {
				return false, ""
			}
			return true, "non-local variable"
		case *ast.SelectorExpr:
			return true, "field or imported variable"
		case *ast.IndexExpr:
			return true, "indexed element"
		default:
			return false, ""
		}
	}
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}
