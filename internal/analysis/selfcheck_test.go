package analysis

import (
	"go/ast"
	"go/types"
	"strings"
	"sync"
	"testing"
)

// repoLoad is the one whole-module load shared by the self-checks below:
// type-checking the module is the expensive part, so the lint and
// reachability gates pay for it once per test binary.
var repoLoad struct {
	once   sync.Once
	module string
	loader *Loader
	pkgs   []*Package
	err    error
}

// loadRepo returns every package of the enclosing module, loaded once.
func loadRepo(t *testing.T) (*Loader, []*Package) {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	repoLoad.once.Do(func() {
		root, module, err := FindModule(".")
		if err != nil {
			repoLoad.err = err
			return
		}
		repoLoad.module = module
		repoLoad.loader = NewLoader(root, module)
		repoLoad.pkgs, repoLoad.err = repoLoad.loader.LoadAll()
	})
	if repoLoad.err != nil {
		t.Fatalf("loading the enclosing module: %v", repoLoad.err)
	}
	if len(repoLoad.pkgs) < 5 {
		t.Fatalf("suspiciously few packages loaded (%d); walk is broken", len(repoLoad.pkgs))
	}
	return repoLoad.loader, repoLoad.pkgs
}

// TestRepoIsLintClean runs the full rule set over the enclosing module —
// the same work as `aegis-lint ./...` — and requires zero diagnostics.
// This keeps the tree honest: deleting any //aegis:allow comment whose
// site still trips a rule, or introducing a fresh violation (say,
// time.Now() in internal/fuzzer), fails this test and `make lint` alike.
func TestRepoIsLintClean(t *testing.T) {
	_, pkgs := loadRepo(t)
	// The self-check must include the interprocedural rules: if one is
	// ever dropped from the registry, this clean-tree run would silently
	// stop proving the call-graph contracts.
	for _, name := range []string{"hotpath", "detrand", "lockjournal"} {
		if RuleByName(name) == nil {
			t.Fatalf("call-graph rule %q missing from AllRules", name)
		}
	}
	diags := Analyze(pkgs, AllRules())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Fatalf("repo is not lint-clean: %d finding(s); fix the site or add //aegis:allow(rule) with a reason", len(diags))
	}
}

// Analyze runs the given rules over the packages and returns the surviving
// diagnostics sorted by position: rule findings minus suppressed sites,
// plus suppression hygiene findings (malformed/unknown/reason-less/unused
// allows). The packages form the analyzed program: for the interprocedural
// rules to see through package boundaries, dependencies must be included
// (the CLI passes the loader's full cache).
func Analyze(pkgs []*Package, rules []*Rule) []Diagnostic {
	prog := NewProgram(pkgs)
	results := make([]PackageResult, 0, len(prog.Packages))
	for _, pkg := range prog.Packages {
		results = append(results, AnalyzePackage(prog, pkg, rules))
	}
	return Merge(results, RunningSet(rules), true)
}

// TestRepoBuildsGuestsInOnePlace keeps protected-guest assembly in
// sev.NewGuest, which fills vCPU 0's app and defense slots. A non-test
// file outside internal/sev that builds its own world (sev.NewWorld) or
// schedules a process by hand ((*sev.VM).AddProcess) would assemble a
// guest elsewhere: a hand-scheduled second process lands in the defense
// slot whether or not it is a defense. The nested bench module is a
// module of its own and keeps its own assembly.
func TestRepoBuildsGuestsInOnePlace(t *testing.T) {
	// coTenants may schedule one process by hand: an unprotected VM
	// launched next to a protected guest, not a guest itself.
	coTenants := map[string]string{
		"internal/experiment.collectOne": "the occupancy attacker probing the victim's shared L2",
	}
	used := map[string]bool{}
	_, pkgs := loadRepo(t)
	for _, pkg := range pkgs {
		rel := strings.TrimPrefix(strings.TrimPrefix(pkg.Path, pkg.Module), "/")
		if rel == "internal/sev" || rel == "bench" || strings.HasPrefix(rel, "bench/") {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				site := rel + "."
				if fd, ok := decl.(*ast.FuncDecl); ok {
					site += fd.Name.Name
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					fn := calleeFunc(pkg.Info, call)
					if fn == nil || !pkgPathHasSuffix(fn.Pkg(), "internal/sev") {
						return true
					}
					method := fn.Type().(*types.Signature).Recv() != nil
					if method && fn.Name() == "AddProcess" && coTenants[site] != "" && !used[site] {
						used[site] = true
						return true
					}
					if (!method && fn.Name() == "NewWorld") || (method && fn.Name() == "AddProcess") {
						t.Errorf("%s: %s outside internal/sev; build the guest with sev.NewGuest (app and defense slots) and replace its defense with VM.SetDefense",
							pkg.Fset.Position(call.Pos()), fn.Name())
					}
					return true
				})
			}
		}
	}
	for site, why := range coTenants {
		if !used[site] {
			t.Errorf("co-tenant exemption %s (%s) matches no AddProcess call; drop it", site, why)
		}
	}
}
