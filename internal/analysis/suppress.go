package analysis

import (
	"fmt"
	"go/token"
	"regexp"
	"strings"
)

// allowPattern matches a well-formed suppression comment. The directive
// style (no space after //, like //go:) keeps gofmt from reindenting it.
var allowPattern = regexp.MustCompile(`^aegis:allow\(([a-zA-Z0-9_-]+)\)[ \t]*(.*)$`)

// allow is one //aegis:allow(rule) reason comment found in a source file.
type allow struct {
	pos    token.Position
	rule   string
	reason string
	valid  bool // names a registered rule and carries a reason
	used   bool
}

// key identifies an allow stably across separate analysis runs: the
// closure walk can mark a dependency file's allow used while analyzing a
// downstream package, and Merge unions these keys before judging
// unused-ness.
func (a *allow) key() string {
	return fmt.Sprintf("%s:%d:%s", a.pos.Filename, a.pos.Line, a.rule)
}

// AllowRecord is the exported inventory form of one //aegis:allow comment,
// used by Merge for hygiene and by `aegis-lint -audit` for review.
type AllowRecord struct {
	Pos       token.Position
	Rule      string
	Reason    string
	Malformed bool
}

// Key returns the record's cross-run identity (file:line:rule).
func (r AllowRecord) Key() string {
	return fmt.Sprintf("%s:%d:%s", r.Pos.Filename, r.Pos.Line, r.Rule)
}

// suppressions indexes every allow comment visible to one package's
// analysis — the package's own files plus its module import closure, since
// interprocedural diagnostics can land in dependency files — by (file,
// line) so diagnostics can be matched against the same line or the line
// directly below the comment.
type suppressions struct {
	byLine map[string]map[int][]*allow // file -> line -> allows
	order  []*allow                    // discovery order for inventory
}

// collect scans a package's comments for aegis:allow directives. Malformed
// directives (missing parens) are recorded as invalid so hygiene can
// report them.
func (s *suppressions) collect(pkg *Package) {
	if s.byLine == nil {
		s.byLine = make(map[string]map[int][]*allow)
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok || !strings.HasPrefix(strings.TrimSpace(text), "aegis:allow") {
					continue
				}
				a := &allow{pos: pkg.Fset.Position(c.Pos())}
				if m := allowPattern.FindStringSubmatch(strings.TrimSpace(text)); m != nil {
					a.rule = m[1]
					a.reason = strings.TrimSpace(m[2])
					a.valid = RuleByName(a.rule) != nil && a.reason != ""
				}
				s.order = append(s.order, a)
				file := a.pos.Filename
				if s.byLine[file] == nil {
					s.byLine[file] = make(map[int][]*allow)
				}
				s.byLine[file][a.pos.Line] = append(s.byLine[file][a.pos.Line], a)
			}
		}
	}
}

// suppresses reports whether d is covered by a valid allow comment on the
// same line or the line directly above, and marks that allow used.
func (s *suppressions) suppresses(d Diagnostic) bool {
	if d.Rule == SuppressionRule {
		return false
	}
	lines := s.byLine[d.Pos.Filename]
	hit := false
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, a := range lines[line] {
			if a.valid && a.rule == d.Rule {
				a.used = true
				hit = true
			}
		}
	}
	return hit
}

// allowsAt reports whether a valid allow for rule covers the given
// position (same line or line above) and marks it used. The closure walk
// uses this to prune call-graph traversal at explicitly-allowed call
// sites.
func (s *suppressions) allowsAt(pos token.Position, rule string) bool {
	lines := s.byLine[pos.Filename]
	hit := false
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, a := range lines[line] {
			if a.valid && a.rule == rule {
				a.used = true
				hit = true
			}
		}
	}
	return hit
}

// records returns the inventory of allows found in the given files
// (a package's own sources), in discovery order.
func (s *suppressions) records(ownFiles map[string]bool) []AllowRecord {
	var out []AllowRecord
	for _, a := range s.order {
		if !ownFiles[a.pos.Filename] {
			continue
		}
		out = append(out, AllowRecord{
			Pos:       a.pos,
			Rule:      a.rule,
			Reason:    a.reason,
			Malformed: a.rule == "",
		})
	}
	return out
}

// usedKeys returns the keys of every allow marked used during this
// analysis, in discovery order. Keys may reference files of dependency
// packages: the closure walk marks call-site allows along whole call chains.
func (s *suppressions) usedKeys() []string {
	var out []string
	for _, a := range s.order {
		if a.used {
			out = append(out, a.key())
		}
	}
	return out
}
