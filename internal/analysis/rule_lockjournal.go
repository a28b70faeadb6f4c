package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// lockjournalRule turns the PR-8 serialized-journal invariant — aegisd's
// flight journal is written only from the serialized section, which is
// what makes the journal replayable — from a test-only property into a
// compile-time one. In internal/daemon, every call that writes the flight
// journal (a Record or Incident method of the flight package) must occur
// in a function that is either annotated //aegis:serialized or provably
// reached while holding the daemon mutex.
//
// Lockset model (see DESIGN.md "Mechanically enforced invariants"):
// a function body is held when
//
//   - it carries the //aegis:serialized doc directive (a trusted, reviewed
//     annotation for barrier-path helpers), or
//   - it acquires a sync.Mutex/RWMutex write lock at closure depth 0 — in
//     which case only code after the Lock call is held, or
//   - every incoming call edge is clean (same package, not through a func
//     literal, not a go statement, not conservative interface dispatch)
//     and comes from a held position of a held caller.
//
// Heldness is a greatest fixpoint: all functions start held and lose the
// property when an unclean or unheld incoming edge is found, so mutual
// recursion inside the serialized section stays held. Journal writes
// inside func literals or go statements are always violations — the
// literal can outlive the serialized section that created it. Sites may
// be suppressed with //aegis:allow(lockjournal) and a reason.
var lockjournalRule = &Rule{
	Name: "lockjournal",
	Doc:  "daemon flight-journal writes only in //aegis:serialized or provably-locked functions",
	Run:  runLockjournal,
}

// SerializedAnnotation is the doc-comment directive marking a function
// that only runs in the daemon's serialized (mutex-held) section.
const SerializedAnnotation = "//aegis:serialized"

// isSerializedAnnotated reports whether the function declaration carries
// the //aegis:serialized directive in its doc comment.
func isSerializedAnnotated(fd *ast.FuncDecl) bool {
	return hasDirective(fd, SerializedAnnotation)
}

// lockjournalPkgSuffix scopes the rule: only the daemon owns a serialized
// journal contract.
const lockjournalPkgSuffix = "internal/daemon"

// flightPkgSuffixLJ is the flight-journal package whose Record/Incident
// methods count as journal writes (suffix-matched so fixture stubs
// participate).
const flightPkgSuffixLJ = "internal/telemetry/flight"

func runLockjournal(pass *Pass) {
	if !pathHasSuffix(pass.Path, lockjournalPkgSuffix) {
		return
	}
	g := pass.Prog.CallGraph()
	module := pass.Pkg.Module

	// Classify every function of the daemon package.
	var nodes []*Node
	annotated := make(map[*Node]bool)
	lockPos := make(map[*Node]token.Pos) // first depth-0 mutex acquisition
	for _, n := range g.Nodes() {
		if n.Pkg != pass.Pkg {
			continue
		}
		nodes = append(nodes, n)
		if isSerializedAnnotated(n.Decl) {
			annotated[n] = true
		} else if pos, ok := depth0MutexLock(n.Pkg.Info, n.Decl); ok {
			lockPos[n] = pos
		}
	}

	held := lockjournalFixpoint(g, pass.Pkg, nodes, annotated, lockPos)

	for _, n := range nodes {
		for _, w := range collectJournalWrites(n.Pkg.Info, n.Decl) {
			fname := shortFuncName(n, module)
			w.name = shortName(w.name, module)
			switch {
			case w.async:
				pass.Reportf(w.pos, "flight-journal write %s launched by a go statement in %s; the goroutine runs outside the serialized section", w.name, fname)
			case w.inClosure:
				pass.Reportf(w.pos, "flight-journal write %s inside a func literal in %s; the literal can outlive the serialized section — hoist the write into the serialized caller", w.name, fname)
			case annotated[n]:
				// trusted
			case lockPos[n] != token.NoPos && w.pos > lockPos[n]:
				// after the depth-0 Lock
			case lockPos[n] != token.NoPos:
				pass.Reportf(w.pos, "flight-journal write %s in %s before the mutex is acquired", w.name, fname)
			case held[n]:
				// every incoming edge is clean and held
			default:
				pass.Reportf(w.pos, "flight-journal write %s in %s, which is neither //aegis:serialized nor provably holding the daemon mutex: %s",
					w.name, fname, unheldReason(g, n, pass.Pkg, annotated, lockPos, held, module))
			}
		}
	}
}

// lockjournalFixpoint computes, for functions that neither carry the
// annotation nor acquire the mutex themselves, whether every path into
// them holds the lock. Greatest fixpoint: start optimistic, strike
// functions with a missing, unclean, or unheld incoming edge, repeat
// until stable (iteration over sorted nodes keeps it deterministic).
func lockjournalFixpoint(g *CallGraph, pkg *Package, nodes []*Node, annotated map[*Node]bool, lockPos map[*Node]token.Pos) map[*Node]bool {
	held := make(map[*Node]bool, len(nodes))
	for _, n := range nodes {
		if !annotated[n] {
			if _, acquires := lockPos[n]; !acquires {
				held[n] = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range nodes {
			if !held[n] {
				continue
			}
			ok := len(g.Callers(n)) > 0
			for _, ce := range g.Callers(n) {
				if ce.Edge.Dynamic || ce.Edge.InClosure || ce.Edge.Async || ce.Caller.Pkg != pkg {
					ok = false
					break
				}
				if annotated[ce.Caller] {
					continue
				}
				if lp, acquires := lockPos[ce.Caller]; acquires {
					if ce.Edge.Pos > lp {
						continue
					}
					ok = false
					break
				}
				if !held[ce.Caller] {
					ok = false
					break
				}
			}
			if !ok {
				held[n] = false
				changed = true
			}
		}
	}
	return held
}

// unheldReason explains why the fixpoint struck a function, naming the
// first offending incoming edge in deterministic order.
func unheldReason(g *CallGraph, n *Node, pkg *Package, annotated map[*Node]bool, lockPos map[*Node]token.Pos, held map[*Node]bool, module string) string {
	callers := g.Callers(n)
	if len(callers) == 0 {
		return "it has no callers in the call graph, so no lock context reaches it"
	}
	for _, ce := range callers {
		caller := shortFuncName(ce.Caller, module)
		switch {
		case ce.Edge.Dynamic:
			return fmt.Sprintf("it is reachable via conservative interface dispatch from %s", caller)
		case ce.Edge.Async:
			return fmt.Sprintf("it is launched on a goroutine by %s", caller)
		case ce.Edge.InClosure:
			return fmt.Sprintf("it is called from a func literal in %s", caller)
		case ce.Caller.Pkg != pkg:
			return fmt.Sprintf("it is called from outside the daemon package by %s", caller)
		case annotated[ce.Caller]:
			continue
		default:
			if lp, acquires := lockPos[ce.Caller]; acquires {
				if ce.Edge.Pos > lp {
					continue
				}
				return fmt.Sprintf("it is called by %s before the mutex is acquired", caller)
			}
			if !held[ce.Caller] {
				return fmt.Sprintf("its caller %s does not hold the mutex", caller)
			}
		}
	}
	return "its lock state cannot be established"
}

// journalWrite is one flight-journal write site inside a daemon function.
type journalWrite struct {
	pos       token.Pos
	name      string // "flight.Record" / "flight.Incident" style label
	inClosure bool
	async     bool
}

// collectJournalWrites finds every call of a flight-package Record or
// Incident method in the function body, with closure/go-statement
// attribution mirroring the call-graph builder's.
func collectJournalWrites(info *types.Info, fd *ast.FuncDecl) []journalWrite {
	var out []journalWrite
	asyncCalls := make(map[*ast.CallExpr]bool)
	var walk func(n ast.Node, inClosure bool)
	walk = func(n ast.Node, inClosure bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				asyncCalls[n.Call] = true
			case *ast.FuncLit:
				walk(n.Body, true)
				return false
			case *ast.CallExpr:
				if name, ok := journalWriteName(info, n); ok {
					out = append(out, journalWrite{
						pos: n.Pos(), name: name,
						inClosure: inClosure, async: asyncCalls[n],
					})
				}
			}
			return true
		})
	}
	walk(fd.Body, false)
	return out
}

// journalWriteName reports whether the call writes the flight journal and
// labels it (receiver type + method, e.g. "(*flight.Handle).Record").
func journalWriteName(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil || (fn.Name() != "Record" && fn.Name() != "Incident") {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !pkgPathHasSuffix(fn.Pkg(), flightPkgSuffixLJ) {
		return "", false
	}
	return fn.FullName(), true
}

// depth0MutexLock returns the position of the first sync.Mutex/RWMutex
// Lock call at closure depth 0 of the function body.
func depth0MutexLock(info *types.Info, fd *ast.FuncDecl) (token.Pos, bool) {
	var pos token.Pos
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Name() != "Lock" || fn.Pkg() != nil && fn.Pkg().Path() != "sync" {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			return true
		}
		pos, found = call.Pos(), true
		return false
	})
	return pos, found
}
