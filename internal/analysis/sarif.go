package analysis

import (
	"encoding/json"
	"io"
	"sort"
)

// SARIF 2.1.0 output for GitHub code-scanning upload. Only the fields the
// code-scanning ingester requires are emitted — version, tool driver with
// per-rule metadata, and one result per diagnostic with a physical
// location whose URI is repository-relative — so the document stays small
// and deterministic (rules and results are sorted).

// SARIFVersion is the emitted SARIF schema version.
const SARIFVersion = "2.1.0"

const sarifSchemaURI = "https://json.schemastore.org/sarif-2.1.0.json"

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	Version        string      `json:"version"`
	InformationURI string      `json:"informationUri"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifactLoc `json:"artifactLocation"`
	Region           sarifRegion      `json:"region"`
}

type sarifArtifactLoc struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// WriteSARIF renders diagnostics as a single-run SARIF 2.1.0 log. File
// URIs are made relative to root; rules lists every running rule (plus
// the suppression-hygiene pseudo-rule, which emits diagnostics too) so
// ruleIndex always resolves.
func WriteSARIF(w io.Writer, diags []Diagnostic, rules []*Rule, root string) error {
	ruleIDs := make([]string, 0, len(rules)+1)
	for _, r := range rules {
		ruleIDs = append(ruleIDs, r.Name)
	}
	ruleIDs = append(ruleIDs, SuppressionRule)
	sort.Strings(ruleIDs)

	docs := map[string]string{SuppressionRule: "suppression-comment hygiene: every //aegis:allow must be well-formed, reasoned, and still needed"}
	for _, r := range rules {
		docs[r.Name] = r.Doc
	}
	index := make(map[string]int, len(ruleIDs))
	sr := make([]sarifRule, 0, len(ruleIDs))
	for i, id := range ruleIDs {
		index[id] = i
		sr = append(sr, sarifRule{ID: id, ShortDescription: sarifMessage{Text: docs[id]}})
	}

	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		idx, ok := index[d.Rule]
		if !ok {
			// A diagnostic from a rule outside the running set (possible
			// only through a caller bug) still serializes; append its rule
			// so ruleIndex stays valid.
			idx = len(sr)
			index[d.Rule] = idx
			sr = append(sr, sarifRule{ID: d.Rule, ShortDescription: sarifMessage{Text: d.Rule}})
		}
		results = append(results, sarifResult{
			RuleID:    d.Rule,
			RuleIndex: idx,
			Level:     "error",
			Message:   sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysical{
				ArtifactLocation: sarifArtifactLoc{URI: relPath(d.Pos.Filename, root)},
				Region:           sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
			}}},
		})
	}

	doc := sarifLog{
		Schema:  sarifSchemaURI,
		Version: SARIFVersion,
		Runs: []sarifRun{{
			Tool: sarifTool{Driver: sarifDriver{
				Name:           "aegis-lint",
				Version:        rulesetVersion,
				InformationURI: "https://github.com/repro/aegis",
				Rules:          sr,
			}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
