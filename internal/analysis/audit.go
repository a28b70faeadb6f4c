package analysis

import (
	"encoding/json"
	"io"
	"sort"
)

// AuditSchema identifies the -audit output format.
const AuditSchema = "aegis-lint-audit/v1"

// auditReport is the -audit document: a machine-readable inventory of
// every //aegis:allow comment in the analyzed packages, so reviewers can
// budget suppressions and spot ones whose underlying finding has gone
// away (active=false means the allow no longer suppresses or prunes
// anything and the hygiene rule is flagging it as unused).
type auditReport struct {
	Schema  string       `json:"schema"`
	Root    string       `json:"root"`
	Ruleset string       `json:"ruleset"`
	Allows  []auditAllow `json:"allows"`
}

type auditAllow struct {
	Rule      string `json:"rule"`
	File      string `json:"file"`
	Line      int    `json:"line"`
	Reason    string `json:"reason"`
	Malformed bool   `json:"malformed,omitempty"`
	Active    bool   `json:"active"`
}

// writeAudit renders the allow inventory for the given per-package
// results. An allow is active when some rule consulted it this run —
// either to suppress a finding or to prune a call-graph edge. Records are
// deduplicated by position+rule (a dependency's allows are visible to
// several packages) and sorted by file, line, then rule.
func writeAudit(w io.Writer, results []PackageResult, root string) error {
	used := make(map[string]bool)
	for _, res := range results {
		for _, k := range res.UsedKeys {
			used[k] = true
		}
	}
	seen := make(map[string]bool)
	allows := []auditAllow{}
	for _, res := range results {
		for _, a := range res.Allows {
			k := a.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
			allows = append(allows, auditAllow{
				Rule:      a.Rule,
				File:      relPath(a.Pos.Filename, root),
				Line:      a.Pos.Line,
				Reason:    a.Reason,
				Malformed: a.Malformed,
				Active:    used[k],
			})
		}
	}
	sort.Slice(allows, func(i, j int) bool {
		if allows[i].File != allows[j].File {
			return allows[i].File < allows[j].File
		}
		if allows[i].Line != allows[j].Line {
			return allows[i].Line < allows[j].Line
		}
		return allows[i].Rule < allows[j].Rule
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(auditReport{Schema: AuditSchema, Root: root, Ruleset: rulesetVersion, Allows: allows})
}
