package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// loadFixture loads the fixture tree for one rule (testdata/src/<name>)
// under the synthetic module path "fixture".
func loadFixture(t *testing.T, name string) []*Package {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := NewLoader(root, "fixture").LoadAll()
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s loaded no packages", name)
	}
	return pkgs
}

var wantMarker = regexp.MustCompile(`// want ((?:"[^"]*"\s*)+)`)
var wantQuoted = regexp.MustCompile(`"([^"]*)"`)

// collectWants scans every fixture file for `// want "substr" ...` markers
// and returns the expected diagnostic substrings keyed by file:line.
func collectWants(t *testing.T, pkgs []*Package) map[string][]string {
	t.Helper()
	wants := make(map[string][]string)
	seen := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			file := pkg.Fset.Position(f.Pos()).Filename
			if seen[file] {
				continue
			}
			seen[file] = true
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				m := wantMarker.FindStringSubmatch(line)
				if m == nil {
					continue
				}
				key := fmt.Sprintf("%s:%d", file, i+1)
				for _, q := range wantQuoted.FindAllStringSubmatch(m[1], -1) {
					wants[key] = append(wants[key], q[1])
				}
			}
		}
	}
	return wants
}

// closureFixtures names the call-closure half of the two merged fixtures:
// the files whose want markers exercise the walk from an annotated function
// or a deterministic package into what it reaches. TestRuleFixtures checks
// them again as their own subtest, so a regression in the walk is reported
// under that name as well as under the rule's.
var closureFixtures = []struct {
	name, rule string
	files      []string
}{
	{"hotpathdeep", "hotpath", []string{"dep/dep.go", "hot/chain.go"}},
	{"detranddeep", "detrand", []string{"util/util.go", "internal/stats/stats.go"}},
}

// TestRuleFixtures runs every registered rule against its fixture tree and
// checks the produced diagnostics exactly match the want markers: each
// marker substring must be matched by a diagnostic on its line, and every
// diagnostic must be claimed by a marker. Suppressed sites (those carrying
// //aegis:allow comments in the fixtures) must therefore produce nothing.
func TestRuleFixtures(t *testing.T) {
	for _, rule := range AllRules() {
		t.Run(rule.Name, func(t *testing.T) {
			checkFixture(t, rule, nil)
		})
	}
	for _, c := range closureFixtures {
		t.Run(c.name, func(t *testing.T) {
			rule := RuleByName(c.rule)
			if rule == nil {
				t.Fatalf("rule %q missing from AllRules", c.rule)
			}
			checkFixture(t, rule, c.files)
		})
	}
}

// checkFixture runs rule over its fixture tree and matches diagnostics
// against want markers. With files non-nil, only markers and diagnostics in
// those files (slash paths relative to the fixture root) are compared.
func checkFixture(t *testing.T, rule *Rule, files []string) {
	t.Helper()
	pkgs := loadFixture(t, rule.Name)
	root, err := filepath.Abs(filepath.Join("testdata", "src", rule.Name))
	if err != nil {
		t.Fatal(err)
	}
	inScope := func(file string) bool {
		if files == nil {
			return true
		}
		rel, err := filepath.Rel(root, file)
		if err != nil {
			return false
		}
		for _, f := range files {
			if filepath.ToSlash(rel) == f {
				return true
			}
		}
		return false
	}
	diags := Analyze(pkgs, []*Rule{rule})
	wants := collectWants(t, pkgs)
	for key := range wants {
		if !inScope(key[:strings.LastIndex(key, ":")]) {
			delete(wants, key)
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want markers; every rule fixture must demonstrate at least one violation", rule.Name)
	}

	matched := make(map[string][]bool)
	for _, d := range diags {
		if !inScope(d.Pos.Filename) {
			continue
		}
		if d.Rule != rule.Name {
			t.Errorf("unexpected %s diagnostic in %s fixture: %s", d.Rule, rule.Name, d)
			continue
		}
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		subs := wants[key]
		hit := false
		for i, sub := range subs {
			if len(matched[key]) == 0 {
				matched[key] = make([]bool, len(subs))
			}
			if !matched[key][i] && strings.Contains(d.Message, sub) {
				matched[key][i] = true
				hit = true
				break
			}
		}
		if !hit {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, subs := range wants {
		for i, sub := range subs {
			if len(matched[key]) == 0 || !matched[key][i] {
				t.Errorf("missing diagnostic at %s matching %q", key, sub)
			}
		}
	}
}

// TestEveryRuleHasFixture pins the one-file-plus-one-fixture contract for
// extending the suite.
func TestEveryRuleHasFixture(t *testing.T) {
	for _, rule := range AllRules() {
		if _, err := os.Stat(filepath.Join("testdata", "src", rule.Name)); err != nil {
			t.Errorf("rule %s has no fixture directory: %v", rule.Name, err)
		}
	}
}
