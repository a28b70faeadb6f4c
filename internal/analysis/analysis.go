// Package analysis implements aegis-lint: a stdlib-only static-analysis
// driver that mechanically enforces the repository's determinism, hot-path,
// telemetry-naming, and error-wrapping contracts (see DESIGN.md
// "Mechanically enforced invariants").
//
// The driver loads every package in the module with go/parser, type-checks
// it with go/types (resolving module-internal imports from source and
// standard-library imports through the source importer — no x/tools
// dependency, go.mod stays empty), and runs a registry of rules. Each rule
// is one file plus one fixture directory under testdata/; diagnostics carry
// file:line:col positions and can be silenced site-by-site with an
//
//	//aegis:allow(rule) reason
//
// comment on the flagged line or the line directly above it. A suppression
// must carry a reason, must name a known rule, and must actually suppress
// something — unused or malformed suppressions are diagnostics themselves,
// so stale allows cannot accumulate.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned in the linted source tree.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Pass carries one type-checked package through one rule. Intra-procedural
// rules use the package fields only; the interprocedural rules reach the
// module-wide call graph through Prog.
type Pass struct {
	Fset  *token.FileSet
	Path  string // import path of the package under analysis
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	Pkg   *Package // the package under analysis
	Prog  *Program // the whole loaded program

	rule string
	sink *[]Diagnostic
	sup  *suppressions
}

// Reportf records a diagnostic at pos for the rule currently running.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	d := Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
	}
	*p.sink = append(*p.sink, d)
}

// AllowedAt reports whether a valid //aegis:allow for the running rule
// covers pos (same line or the line above) and marks that allow used. The
// closure walk calls this at call sites to prune traversal: an allowed edge
// is cut out of the transitive closure entirely, which is how the
// conservative dispatch over-approximation is relaxed site-by-site. A
// pruning allow counts as used even when no diagnostic would have survived
// the pruned subtree — proving that negative would require re-analyzing
// without the allow.
func (p *Pass) AllowedAt(pos token.Pos) bool {
	if p.sup == nil {
		return false
	}
	return p.sup.allowsAt(p.Fset.Position(pos), p.rule)
}

// Rule is one named check. Run inspects a single package and reports
// findings through pass.Reportf.
type Rule struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// SuppressionRule is the reserved name under which the driver reports
// malformed, unknown-rule, reason-less, and unused //aegis:allow comments.
// It is not a Rule (it cannot be disabled) and cannot itself be suppressed.
const SuppressionRule = "suppression"

// rulesetVersion names the rule set in SARIF and -audit output: bump it
// whenever any rule's logic or message format changes.
const rulesetVersion = "aegis-lint-rules/v3"

// AllRules returns every registered rule, sorted by name. Adding a rule to
// the suite means adding one file defining it, listing it here, and adding
// a fixture directory under testdata/src/<name>/.
func AllRules() []*Rule {
	rules := []*Rule{
		detrandRule,
		errwrapRule,
		flightkindRule,
		hotpathRule,
		lockjournalRule,
		maprangeRule,
		metricnameRule,
	}
	sort.Slice(rules, func(i, j int) bool { return rules[i].Name < rules[j].Name })
	return rules
}

// RuleByName returns the named rule, or nil.
func RuleByName(name string) *Rule {
	for _, r := range AllRules() {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// deterministicLeaves names the internal packages whose outputs must be
// pure functions of (seed, config): the replay contracts in DESIGN.md hang
// off these. detrand and maprange apply only here.
var deterministicLeaves = []string{
	"daemon",
	"faultinject",
	"fuzzer",
	"hpc",
	"obfuscator",
	"profiler",
	"rng",
	"sev",
	"stats",
	"workload",
}

// IsDeterministicPackage reports whether the import path is one of the
// deterministic simulation packages (matched as a path suffix
// "internal/<leaf>", so fixture trees can opt in with the same layout).
func IsDeterministicPackage(path string) bool {
	for _, leaf := range deterministicLeaves {
		if pathHasSuffix(path, "internal/"+leaf) {
			return true
		}
	}
	return false
}

// lastElem returns the final element of an import path.
func lastElem(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// pathHasSuffix reports whether path equals suffix or ends in "/"+suffix,
// respecting path-element boundaries.
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// pkgPathHasSuffix is pathHasSuffix over a possibly-nil types.Package.
func pkgPathHasSuffix(pkg *types.Package, suffix string) bool {
	return pkg != nil && pathHasSuffix(pkg.Path(), suffix)
}

// PackageResult is everything one package's analysis produces, shaped so
// per-package results can be merged later: the surviving rule
// diagnostics (which for interprocedural rules may be positioned in dependency
// files), the inventory of //aegis:allow comments in the package's own
// files, and the keys of every allow the analysis marked used — including
// allows in dependency files matched along call chains. Hygiene
// (unused/malformed allows) is deliberately NOT computed here: whether an
// allow is unused is a whole-run property (another package's analysis may
// be the one using it), so Merge computes it from the union of used keys.
type PackageResult struct {
	Path        string
	Diagnostics []Diagnostic
	Allows      []AllowRecord
	UsedKeys    []string
}

// AnalyzePackage runs the given rules over one package of the program and
// returns its result. Suppressions are collected from the package's whole
// module import closure before rules run, because interprocedural
// diagnostics can land in — and be suppressed or pruned in — dependency
// files. The result depends only on the package's import closure, never on
// which other packages happen to be loaded, so a single-directory run
// reports the same diagnostics for that package as a ./... run.
func AnalyzePackage(prog *Program, pkg *Package, rules []*Rule) PackageResult {
	sup := &suppressions{}
	closure := prog.Closure(pkg)
	paths := make([]string, 0, len(closure))
	for p := range closure {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if dep := prog.PackageByPath(p); dep != nil {
			sup.collect(dep)
		}
	}

	var all []Diagnostic
	for _, r := range rules {
		pass := &Pass{
			Fset:  pkg.Fset,
			Path:  pkg.Path,
			Files: pkg.Files,
			Types: pkg.Types,
			Info:  pkg.Info,
			Pkg:   pkg,
			Prog:  prog,
			rule:  r.Name,
			sink:  &all,
			sup:   sup,
		}
		r.Run(pass)
	}

	kept := all[:0]
	for _, d := range all {
		if !sup.suppresses(d) {
			kept = append(kept, d)
		}
	}
	SortDiagnostics(kept)

	own := make(map[string]bool, len(pkg.Filenames))
	for _, f := range pkg.Filenames {
		own[f] = true
	}
	return PackageResult{
		Path:        pkg.Path,
		Diagnostics: kept,
		Allows:      sup.records(own),
		UsedKeys:    sup.usedKeys(),
	}
}

// Merge combines per-package results into the final diagnostic list:
// the union of rule findings (deduplicated — two packages' analyses can
// surface the same dependency-file finding) plus suppression hygiene
// computed globally. Unused-ness of an allow is only judged for rules in
// the running set, so a single-rule invocation does not flag allows
// belonging to other rules — and only when complete is true, i.e. the
// results cover every package of the program. A partial run cannot judge
// unused-ness: an allow in a dependency is legitimately consumed by the
// analysis of an importer that was not a target (e.g. a cold-guard allow
// in internal/hpc used only when the daemon's hot path is traversed).
// Malformed, unknown-rule, and reason-less allows are file-local facts
// and are reported either way.
func Merge(results []PackageResult, running map[string]bool, complete bool) []Diagnostic {
	used := make(map[string]bool)
	for _, r := range results {
		for _, k := range r.UsedKeys {
			used[k] = true
		}
	}

	var out []Diagnostic
	seen := make(map[string]bool)
	for _, r := range results {
		for _, d := range r.Diagnostics {
			if key := d.String(); !seen[key] {
				seen[key] = true
				out = append(out, d)
			}
		}
	}

	for _, r := range results {
		for _, a := range r.Allows {
			report := func(format string, args ...any) {
				out = append(out, Diagnostic{Pos: a.Pos, Rule: SuppressionRule,
					Message: fmt.Sprintf(format, args...)})
			}
			switch {
			case a.Malformed:
				report("malformed suppression; want //aegis:allow(rule) reason")
			case RuleByName(a.Rule) == nil:
				report("suppression names unknown rule %q", a.Rule)
			case a.Reason == "":
				report("suppression of %q has no reason; state why the site is exempt", a.Rule)
			case complete && running[a.Rule] && !used[a.Key()]:
				report("unused suppression of %q; the site no longer trips the rule", a.Rule)
			}
		}
	}
	SortDiagnostics(out)
	return out
}

// RunningSet returns the rule-name set of a rule slice, for Merge.
func RunningSet(rules []*Rule) map[string]bool {
	running := make(map[string]bool, len(rules))
	for _, r := range rules {
		running[r.Name] = true
	}
	return running
}

// SortDiagnostics orders diagnostics by file, line, column, rule, message.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}

// calleeFunc resolves the statically-called function of a call expression,
// or nil for builtins, conversions, and dynamic calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isBuiltin reports whether the call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}
