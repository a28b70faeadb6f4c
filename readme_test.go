package aegis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestReadmeExamplesExist keeps the README's demos checked: every Example
// its Examples table names is declared in a root _test.go, where `go test`
// runs it against its // Output: block, and the README points at no
// unchecked demo main.
func TestReadmeExamplesExist(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	for _, stale := range []string{"examples/", "aegis-attack"} {
		if strings.Contains(readme, stale) {
			t.Errorf("README names %q; its demos are root Example functions", stale)
		}
	}

	declared := map[string]bool{}
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Example") {
				declared[fn.Name.Name] = true
			}
		}
	}

	_, table, ok := strings.Cut(readme, "\n### Examples\n")
	if !ok {
		t.Fatal("README has no Examples section")
	}
	table, _, _ = strings.Cut(table, "\n#")
	listed := regexp.MustCompile("`(Example\\w*)`").FindAllStringSubmatch(table, -1)
	if len(listed) == 0 {
		t.Fatal("README Examples table lists no Example function")
	}
	for _, m := range listed {
		if !declared[m[1]] {
			t.Errorf("README Examples table lists %s, which no root _test.go declares", m[1])
		}
	}
}
