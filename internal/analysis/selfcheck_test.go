package analysis

import (
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
	// stop proving the deep contracts.
	for _, name := range []string{"hotpathdeep", "detranddeep", "lockjournal"} {
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
