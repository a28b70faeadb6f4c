package analysis

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/format"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Exit codes of the aegis-lint CLI, asserted by cli_test.go and relied on
// by the Makefile gates.
const (
	ExitClean     = 0 // no findings
	ExitFindings  = 1 // at least one diagnostic
	ExitLoadError = 2 // the tree could not be loaded/parsed/type-checked
)

// JSONSchema identifies the -json output format.
const JSONSchema = "aegis-lint/v1"

// jsonReport is the -json document.
type jsonReport struct {
	Schema      string           `json:"schema"`
	Root        string           `json:"root"`
	Diagnostics []jsonDiagnostic `json:"diagnostics"`
}

type jsonDiagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// CLI runs the aegis-lint command line against args (not including the
// program name) and returns the process exit code. All output goes to the
// given writers, so tests can drive it in-process.
func CLI(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aegis-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON (schema aegis-lint/v1)")
	sarifOut := fs.Bool("sarif", false, "emit diagnostics as SARIF 2.1.0 for code-scanning upload")
	audit := fs.Bool("audit", false, "emit a JSON inventory of every //aegis:allow (schema aegis-lint-audit/v1) instead of diagnostics")
	gofmt := fs.Bool("gofmt", false, "check gofmt cleanliness over the same file walk instead of linting")
	dir := fs.String("C", ".", "directory to resolve the module from")
	listRules := fs.Bool("rules", false, "list the registered rules and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: aegis-lint [-json|-sarif|-audit] [-gofmt] [-rules] [-C dir] [./...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return ExitLoadError
	}

	if *listRules {
		for _, r := range AllRules() {
			fmt.Fprintf(stdout, "%-12s %s\n", r.Name, r.Doc)
		}
		return ExitClean
	}

	root, module, err := FindModule(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "aegis-lint: %v\n", err)
		return ExitLoadError
	}
	loader := NewLoader(root, module)

	if *gofmt {
		return runGofmt(loader, stdout, stderr)
	}

	pkgs, code := loadPatterns(loader, fs.Args(), stderr)
	if code != ExitClean {
		return code
	}

	// The program spans every loaded package (requested plus dependencies)
	// so the interprocedural rules see the whole import closure even when
	// a single directory is requested; only the requested packages are
	// analyzed and reported.
	prog := NewProgram(loader.Loaded())
	rules := AllRules()
	targets := dedupe(pkgs)
	results := make([]PackageResult, 0, len(targets))
	for _, pkg := range targets {
		results = append(results, AnalyzePackage(prog, pkg, rules))
	}

	if *audit {
		if err := writeAudit(stdout, results, root); err != nil {
			fmt.Fprintf(stderr, "aegis-lint: %v\n", err)
			return ExitLoadError
		}
		return ExitClean
	}

	// Unused-suppression hygiene is only judged when every package of the
	// program was a target (a ./... run); see Merge.
	diags := Merge(results, RunningSet(rules), len(results) == len(prog.Packages))
	if *sarifOut {
		if err := WriteSARIF(stdout, diags, rules, root); err != nil {
			fmt.Fprintf(stderr, "aegis-lint: %v\n", err)
			return ExitLoadError
		}
		if len(diags) > 0 {
			return ExitFindings
		}
		return ExitClean
	}
	return emit(diags, root, *jsonOut, stdout, stderr)
}

// dedupe drops repeated packages (overlapping patterns) preserving a
// deterministic path order.
func dedupe(pkgs []*Package) []*Package {
	seen := make(map[string]bool, len(pkgs))
	out := pkgs[:0:0]
	for _, p := range pkgs {
		if !seen[p.Path] {
			seen[p.Path] = true
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// loadPatterns resolves the package patterns (default "./...") against the
// loader. Supported forms: "./..." for the whole module, or a directory
// path (relative to the invocation) naming one package.
func loadPatterns(loader *Loader, patterns []string, stderr io.Writer) ([]*Package, int) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var pkgs []*Package
	for _, pat := range patterns {
		if pat == "./..." || pat == "..." {
			all, err := loader.LoadAll()
			if err != nil {
				fmt.Fprintf(stderr, "aegis-lint: %v\n", err)
				return nil, ExitLoadError
			}
			pkgs = append(pkgs, all...)
			continue
		}
		abs, err := filepath.Abs(pat)
		if err == nil {
			abs, err = filepath.EvalSymlinks(abs)
		}
		if err != nil {
			fmt.Fprintf(stderr, "aegis-lint: %v\n", err)
			return nil, ExitLoadError
		}
		rel, err := filepath.Rel(loader.Root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			fmt.Fprintf(stderr, "aegis-lint: %s is outside module root %s\n", pat, loader.Root)
			return nil, ExitLoadError
		}
		pkg, err := loader.LoadDir(filepath.ToSlash(rel))
		if err != nil {
			fmt.Fprintf(stderr, "aegis-lint: %v\n", err)
			return nil, ExitLoadError
		}
		if pkg == nil {
			fmt.Fprintf(stderr, "aegis-lint: no Go files in %s\n", pat)
			return nil, ExitLoadError
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, ExitClean
}

// relPath maps a file name under root to a slash-separated relative one,
// the form every output format reports; files outside root stay as-is.
func relPath(name, root string) string {
	if r, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(r, "..") {
		return filepath.ToSlash(r)
	}
	return name
}

// emit prints the diagnostics (text or JSON, paths relative to root) and
// returns the exit code.
func emit(diags []Diagnostic, root string, asJSON bool, stdout, stderr io.Writer) int {
	if asJSON {
		report := jsonReport{Schema: JSONSchema, Root: root, Diagnostics: []jsonDiagnostic{}}
		for _, d := range diags {
			report.Diagnostics = append(report.Diagnostics, jsonDiagnostic{
				File: relPath(d.Pos.Filename, root), Line: d.Pos.Line, Col: d.Pos.Column,
				Rule: d.Rule, Message: d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(stderr, "aegis-lint: %v\n", err)
			return ExitLoadError
		}
	} else {
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", relPath(d.Pos.Filename, root), d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
		}
	}
	if len(diags) > 0 {
		return ExitFindings
	}
	return ExitClean
}

// runGofmt checks that every Go file on the shared walk (tests included,
// testdata fixtures excluded) is gofmt-clean, printing the dirty files.
func runGofmt(loader *Loader, stdout, stderr io.Writer) int {
	files, err := loader.GoFiles()
	if err != nil {
		fmt.Fprintf(stderr, "aegis-lint: %v\n", err)
		return ExitLoadError
	}
	dirty := 0
	for _, rel := range files {
		full := filepath.Join(loader.Root, filepath.FromSlash(rel))
		src, err := os.ReadFile(full)
		if err != nil {
			fmt.Fprintf(stderr, "aegis-lint: %v\n", err)
			return ExitLoadError
		}
		formatted, err := format.Source(src)
		if err != nil {
			fmt.Fprintf(stderr, "aegis-lint: gofmt %s: %v\n", rel, err)
			return ExitLoadError
		}
		if !bytes.Equal(src, formatted) {
			fmt.Fprintf(stdout, "%s\n", rel)
			dirty++
		}
	}
	if dirty > 0 {
		fmt.Fprintf(stderr, "aegis-lint: %d file(s) need gofmt\n", dirty)
		return ExitFindings
	}
	return ExitClean
}
