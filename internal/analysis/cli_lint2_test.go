package analysis

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// Tests for the v2 CLI surface: SARIF output, single-directory runs, and
// the -audit suppression inventory.

func TestCLISARIF(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":                "module tmpmod\n\ngo 1.21\n",
		"internal/fuzzer/fz.go": dirtyFuzzer,
	})
	code, stdout, stderr := runCLI(t, "-C", root, "-sarif", "./...")
	if code != ExitFindings {
		t.Fatalf("exit = %d, want %d\nstderr: %s", code, ExitFindings, stderr)
	}
	if code2, stdout2, _ := runCLI(t, "-C", root, "-sarif", "./..."); code2 != code || stdout2 != stdout {
		t.Errorf("second run differs (exit %d vs %d):\n--- first\n%s--- second\n%s", code2, code, stdout, stdout2)
	}
	var doc struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Level     string `json:"level"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(stdout), &doc); err != nil {
		t.Fatalf("invalid SARIF JSON: %v\n%s", err, stdout)
	}
	if doc.Version != SARIFVersion {
		t.Errorf("version = %q, want %q", doc.Version, SARIFVersion)
	}
	if doc.Schema == "" || len(doc.Runs) != 1 {
		t.Fatalf("want $schema and exactly one run, got schema=%q runs=%d", doc.Schema, len(doc.Runs))
	}
	run := doc.Runs[0]
	if run.Tool.Driver.Name != "aegis-lint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	if len(run.Tool.Driver.Rules) < len(AllRules()) {
		t.Errorf("driver lists %d rules, want at least %d", len(run.Tool.Driver.Rules), len(AllRules()))
	}
	if len(run.Results) == 0 {
		t.Fatal("no results for a dirty tree")
	}
	r := run.Results[0]
	if r.RuleID != "detrand" || r.Level != "error" || r.Message.Text == "" {
		t.Errorf("unexpected first result: %+v", r)
	}
	if r.RuleIndex < 0 || r.RuleIndex >= len(run.Tool.Driver.Rules) ||
		run.Tool.Driver.Rules[r.RuleIndex].ID != r.RuleID {
		t.Errorf("ruleIndex %d does not resolve to %q in the driver rules", r.RuleIndex, r.RuleID)
	}
	if len(r.Locations) != 1 {
		t.Fatalf("result has %d locations, want 1", len(r.Locations))
	}
	loc := r.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/fuzzer/fz.go" {
		t.Errorf("uri = %q, want repo-relative internal/fuzzer/fz.go", loc.ArtifactLocation.URI)
	}
	if loc.Region.StartLine != 5 || loc.Region.StartColumn == 0 {
		t.Errorf("region = %+v, want line 5 with a column", loc.Region)
	}
}

func TestCLISARIFCleanTree(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":              "module tmpmod\n\ngo 1.21\n",
		"internal/clean/c.go": cleanFile,
	})
	code, stdout, _ := runCLI(t, "-C", root, "-sarif", "./...")
	if code != ExitClean {
		t.Fatalf("exit = %d, want %d", code, ExitClean)
	}
	if !strings.Contains(stdout, `"results": []`) {
		t.Errorf("clean SARIF run should carry an empty results array, not null:\n%s", stdout)
	}
}

func TestCLISingleDirMatchesWholeModule(t *testing.T) {
	// dep declares an interface and calls it on a hot path; its only
	// implementation lives in app, which imports dep and allocates. Interface
	// dispatch stops at the caller's import closure, so dep's analysis never
	// reaches app.(Impl).Step whether or not app is loaded: ./dep reports the
	// same diagnostics as the ./... run does for dep. app reports nothing of
	// its own; other is unrelated and has a finding of its own.
	root := writeTree(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.21\n",
		"dep/d.go": "package dep\n\ntype Stepper interface{ Step() int }\n\n" +
			"//aegis:hotpath\nfunc Tick(s Stepper) int {\n\tm := map[int]int{}\n\tm[0] = s.Step()\n\treturn m[0]\n}\n",
		"app/a.go": "package app\n\nimport \"tmpmod/dep\"\n\ntype Impl struct{ log []int }\n\n" +
			"func (i *Impl) Step() int {\n\ti.log = append(i.log, 1)\n\treturn len(i.log)\n}\n\n" +
			"func A() int { return dep.Tick(&Impl{}) }\n",
		"other/o.go": "package other\n\n//aegis:hotpath\nfunc O() map[int]int { return map[int]int{} }\n",
	})
	type report struct {
		Diagnostics []struct {
			File    string `json:"file"`
			Line    int    `json:"line"`
			Col     int    `json:"col"`
			Rule    string `json:"rule"`
			Message string `json:"message"`
		} `json:"diagnostics"`
	}
	decode := func(stdout string) report {
		t.Helper()
		var r report
		if err := json.Unmarshal([]byte(stdout), &r); err != nil {
			t.Fatalf("invalid JSON: %v\n%s", err, stdout)
		}
		return r
	}

	code, stdout, stderr := runCLI(t, "-C", root, "-json", "./...")
	if code != ExitFindings {
		t.Fatalf("./... exit = %d, want %d\nstderr: %s", code, ExitFindings, stderr)
	}
	whole := decode(stdout)
	var subset report
	sawOther := false
	for _, d := range whole.Diagnostics {
		if strings.HasPrefix(d.File, "other/") {
			sawOther = true
			continue
		}
		subset.Diagnostics = append(subset.Diagnostics, d)
	}
	if !sawOther || len(subset.Diagnostics) == 0 {
		t.Fatalf("fixture should report in both dep and other:\n%s", stdout)
	}

	code, stdout, stderr = runCLI(t, "-C", root, "-json", filepath.Join(root, "dep"))
	if code != ExitFindings {
		t.Fatalf("./dep exit = %d, want %d\nstderr: %s", code, ExitFindings, stderr)
	}
	if single := decode(stdout); !reflect.DeepEqual(single, subset) {
		t.Errorf("./dep diagnostics differ from the dep subset of ./...:\n--- ./dep\n%+v\n--- ./... without other/\n%+v", single, subset)
	}
}

const suppressedFuzzer = `package fuzzer

import "time"

//aegis:allow(detrand) wall-clock feeds telemetry only, never simulation state
var T = time.Now()
`

func TestCLIAudit(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":                "module tmpmod\n\ngo 1.21\n",
		"internal/fuzzer/fz.go": suppressedFuzzer,
		"internal/clean/c.go": "package clean\n\n" +
			"//aegis:allow(errwrap) stale suppression retained to exercise the audit\n" +
			"func Add(a, b int) int { return a + b }\n",
	})
	code, stdout, stderr := runCLI(t, "-C", root, "-audit", "./...")
	if code != ExitClean {
		t.Fatalf("audit exit = %d, want %d\nstderr: %s", code, ExitClean, stderr)
	}
	var report struct {
		Schema  string `json:"schema"`
		Root    string `json:"root"`
		Ruleset string `json:"ruleset"`
		Allows  []struct {
			Rule   string `json:"rule"`
			File   string `json:"file"`
			Line   int    `json:"line"`
			Reason string `json:"reason"`
			Active bool   `json:"active"`
		} `json:"allows"`
	}
	if err := json.Unmarshal([]byte(stdout), &report); err != nil {
		t.Fatalf("invalid audit JSON: %v\n%s", err, stdout)
	}
	if report.Schema != AuditSchema {
		t.Errorf("schema = %q, want %q", report.Schema, AuditSchema)
	}
	if report.Root != root || report.Ruleset == "" {
		t.Errorf("root/ruleset = %q/%q", report.Root, report.Ruleset)
	}
	if len(report.Allows) != 2 {
		t.Fatalf("audit lists %d allows, want 2:\n%s", len(report.Allows), stdout)
	}
	byRule := map[string]int{}
	for i, a := range report.Allows {
		byRule[a.Rule] = i
		if a.Reason == "" || a.Line == 0 {
			t.Errorf("allow %d missing reason/line: %+v", i, a)
		}
	}
	if a := report.Allows[byRule["detrand"]]; !a.Active || a.File != "internal/fuzzer/fz.go" {
		t.Errorf("detrand allow should be active in internal/fuzzer/fz.go: %+v", a)
	}
	if a := report.Allows[byRule["errwrap"]]; a.Active {
		t.Errorf("stale errwrap allow should be inactive: %+v", a)
	}
}
