// Command aegis-lint runs the project's static-analysis suite defined in
// internal/analysis: the map-order, telemetry-naming, flight-kind and
// error-wrapping rules, plus the rules that also walk the module-wide
// call graph (hotpath, detrand, lockjournal). See DESIGN.md
// "Mechanically enforced invariants".
//
// Usage:
//
//	aegis-lint [-json|-sarif] [-C dir] [./...]   lint the module
//	aegis-lint -audit [./...]   inventory every //aegis:allow as JSON
//	aegis-lint -rules           list the registered rules
//	aegis-lint -gofmt           gofmt gate on the same file walk
//
// -sarif emits SARIF 2.1.0 for GitHub code-scanning upload. -audit reports
// each suppression's rule, position, reason, and whether it still
// suppresses or prunes anything.
//
// Exit codes: 0 clean, 1 findings, 2 load error.
package main

import (
	"os"

	"github.com/repro/aegis/internal/analysis"
)

func main() {
	os.Exit(analysis.CLI(os.Args[1:], os.Stdout, os.Stderr))
}
