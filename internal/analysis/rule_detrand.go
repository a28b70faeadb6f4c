package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// detrandRule bans sources of nondeterminism in the deterministic
// simulation packages (internal/rng, fuzzer, profiler, obfuscator, sev,
// hpc, stats, workload, faultinject, daemon), whose outputs must replay
// byte-identically from (seed, config) alone. The packages' own files
// may not contain:
//
//   - wall-clock and timer reads (time.Now, time.Since, time.Until,
//     time.Tick, time.After, time.AfterFunc, time.NewTimer,
//     time.NewTicker) — a telemetry-only timing site is the one legitimate
//     use, and must be suppressed with a reason;
//   - environment reads (os.Getenv, os.LookupEnv, os.Environ);
//   - select statements with a default clause, which race goroutine
//     scheduling against channel readiness;
//   - math/rand and math/rand/v2 anywhere in the module: all randomness
//     must derive from internal/rng streams (pure functions of seed and
//     labels), so importing math/rand is banned everywhere outside
//     internal/rng, and the global draws are banned even there.
//
// Nor may they reach any of these, or a global math/rand draw, through
// helpers in other packages — the laundering pattern a per-file check is
// blind to. Every function of a deterministic package is a root of the
// closure walk (callgraph.go), which follows edges inside func literals
// and edges launched by go statements (the closure runs eventually, and a
// goroutine's output still feeds the result). The walk does not enter
// other deterministic packages, which carry the same contract and are
// analyzed on their own, nor the timing-only packages (detrandExempt).
// A sink or a function-value call in a reached function is reported with
// its call chain ("~>" marks conservative interface dispatch). An
// //aegis:allow(detrand) on a line suppresses the finding there and
// prunes the call edge there.
var detrandRule = &Rule{
	Name: "detrand",
	Doc:  "no wall-clock, environment, global math/rand, or racing select in or reachable from deterministic packages",
	Run:  runDetrand,
}

// detrandExempt lists infrastructure package suffixes whose clock use is
// timing-only by contract: telemetry, the flight journal, the parallel
// runner, the artifact store and the ops server read the clock for
// latency and observability only ("timing feeds histograms, never
// values"). The closure walk stops at their boundary.
var detrandExempt = []string{
	"internal/telemetry",
	"internal/telemetry/flight",
	"internal/parallel",
	"internal/artifact",
	"internal/ops",
}

func isDetrandExempt(path string) bool {
	for _, suffix := range detrandExempt {
		if pathHasSuffix(path, suffix) {
			return true
		}
	}
	return false
}

// clockFuncs are the time package functions that read the wall clock or
// start timers.
var clockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Tick": true,
	"After": true, "AfterFunc": true, "NewTimer": true, "NewTicker": true,
}

// envReadFuncs are the os functions that read the process environment.
var envReadFuncs = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true,
}

// randConstructors are the math/rand functions that build a private
// generator rather than drawing from the global one; they are tolerated
// inside internal/rng only.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

// nondetSink is one kind of nondeterminism source the contract bans.
type nondetSink int

const (
	sinkClock    nondetSink = iota // a clockFuncs call
	sinkEnv                        // an envReadFuncs call
	sinkRandDraw                   // a global math/rand draw
	sinkSelect                     // a select with a default clause
)

func runDetrand(pass *Pass) {
	deterministic := IsDeterministicPackage(pass.Path)
	isRng := pathHasSuffix(pass.Path, "internal/rng")
	pkg := lastElem(pass.Path)

	for _, f := range pass.Files {
		// math/rand is policed module-wide: the import itself is the
		// violation outside internal/rng.
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil || (p != "math/rand" && p != "math/rand/v2") {
				continue
			}
			if !isRng {
				pass.Reportf(imp.Pos(), "import of %s; derive randomness from internal/rng streams (rand.New is allowed only inside internal/rng)", p)
			}
		}
		if !deterministic {
			continue
		}
		scanNondetSinks(pass.Info, f, func(pos token.Pos, sink nondetSink, name string) {
			switch sink {
			case sinkClock:
				pass.Reportf(pos, "call to time.%s in deterministic package %s; outputs must be pure functions of (seed, config)", name, pkg)
			case sinkEnv:
				pass.Reportf(pos, "os.%s read in deterministic package %s; outputs must be pure functions of (seed, config)", name, pkg)
			case sinkRandDraw:
				// Outside internal/rng the import is the finding.
				if isRng {
					pass.Reportf(pos, "global math/rand draw rand.%s; use an explicit rng stream", name)
				}
			case sinkSelect:
				pass.Reportf(pos, "select with default clause races goroutine scheduling in deterministic package %s", pkg)
			}
		})
	}
	if !deterministic {
		return
	}

	g := pass.Prog.CallGraph()
	w := newClosureWalk(pass, true, func(callee *Node) bool {
		return callee.Pkg != pass.Pkg && (IsDeterministicPackage(callee.Pkg.Path) || isDetrandExempt(callee.Pkg.Path))
	})
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			root := g.Node(fn)
			if root == nil {
				continue
			}
			w.walk(root, func(n *Node, chain []chainHop) {
				if n.Pkg == pass.Pkg {
					return // the file scan above covers the package's own code
				}
				scanNondetSinks(n.Pkg.Info, n.Decl.Body, func(pos token.Pos, sink nondetSink, name string) {
					w.report(pos, chain, "deterministic package "+pkg+" transitively reaches "+describeSink(sink, name))
				})
				w.reportDynSites(n, chain, func(expr string) string {
					return "deterministic package " + pkg + " reaches a call of function value " + expr + " whose determinism cannot be established"
				})
			})
		}
	}
}

// scanNondetSinks walks node (including func-literal bodies) reporting
// every nondeterminism source the contract bans, with the called
// function's name for all but a select.
func scanNondetSinks(info *types.Info, node ast.Node, report func(pos token.Pos, sink nondetSink, name string)) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			obj, ok := info.Uses[n.Sel]
			if !ok || obj.Pkg() == nil {
				return true
			}
			switch obj.Pkg().Path() {
			case "time":
				if clockFuncs[obj.Name()] {
					report(n.Pos(), sinkClock, obj.Name())
				}
			case "os":
				if envReadFuncs[obj.Name()] {
					report(n.Pos(), sinkEnv, obj.Name())
				}
			case "math/rand", "math/rand/v2":
				if _, isFn := obj.(*types.Func); isFn && !randConstructors[obj.Name()] {
					report(n.Pos(), sinkRandDraw, obj.Name())
				}
			}
		case *ast.SelectStmt:
			for _, clause := range n.Body.List {
				if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
					report(n.Pos(), sinkSelect, "")
				}
			}
		}
		return true
	})
}

// describeSink names a sink reached through the call graph.
func describeSink(sink nondetSink, name string) string {
	switch sink {
	case sinkClock:
		return "time." + name
	case sinkEnv:
		return "os." + name
	case sinkRandDraw:
		return "a global math/rand draw (rand." + name + ")"
	default:
		return "a select with a default clause (races goroutine scheduling)"
	}
}
