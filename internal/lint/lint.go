// Package lint is a small, dependency-free static-analysis framework that
// enforces the repository's determinism and taxonomy invariants. The
// measurement pipeline's claim to bit-identical same-seed runs (DESIGN.md
// "Determinism") holds only as long as no code path consults the wall
// clock, draws from process-global randomness, or iterates a map in
// Go's randomized order; and the paper's Table 2/Table 4 error taxonomy
// stays trustworthy only as long as every switch over a taxonomy enum
// handles every class. PR 1 and PR 2 established those invariants by
// convention; this package makes the toolchain enforce them.
//
// The framework deliberately mirrors the shape of golang.org/x/tools'
// go/analysis — Analyzer, Pass, Reportf — but is built on nothing beyond
// go/ast, go/parser, go/types, and go/importer, because the module carries
// zero dependencies and must stay that way.
//
// # Suppressions
//
// A finding is suppressed by a comment of the form
//
//	//lint:allow <check> <reason...>
//
// placed on the offending line or on the line directly above it. The
// reason is mandatory: a suppression explains itself or it does not
// suppress. The driver itself polices the mechanism with two built-in
// checks: "allow-syntax" fires on a malformed //lint:allow comment, and
// "allow-unused" fires on a suppression that matches no finding, so stale
// allows cannot linger after the code they excused is gone.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Checks the driver itself reports, outside any Analyzer.
const (
	// CheckAllowSyntax flags a //lint:allow comment missing its check name
	// or its reason.
	CheckAllowSyntax = "allow-syntax"
	// CheckAllowUnused flags a well-formed //lint:allow that suppressed
	// nothing.
	CheckAllowUnused = "allow-unused"
)

// Finding is one rule violation at a source position.
type Finding struct {
	// Check names the analyzer (or driver check) that produced the finding.
	Check string
	// Pos locates the violation.
	Pos token.Position
	// Message explains the violation and the sanctioned alternative.
	Message string
	// Suppressed records that a //lint:allow comment covers the finding.
	// Run drops suppressed findings; RunAll returns them marked, so the
	// -json output can carry the full picture.
	Suppressed bool
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Message)
}

// Analyzer is one named invariant check; it sees one type-checked package
// at a time.
type Analyzer struct {
	// Name identifies the check in findings and in //lint:allow comments.
	Name string
	// Doc is a one-paragraph description of the invariant.
	Doc string
	// Match restricts the analyzer to packages whose import path it accepts;
	// nil means every package.
	Match func(pkgPath string) bool
	// Run inspects one package and reports findings through the Pass.
	Run func(*Pass)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps token positions for every file in the load.
	Fset *token.FileSet
	// Files are the package's parsed non-test files, in filename order.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's expression annotations.
	Info *types.Info
	// Path is the package's import path.
	Path string
	// Module is the import path of the module under analysis, so checks can
	// distinguish locally-declared types from imported ones.
	Module string

	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Check:   p.Analyzer.Name,
		Pos:     p.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// allow is one parsed //lint:allow comment.
type allow struct {
	check  string
	pos    token.Position
	broken bool // malformed: missing check or reason
	used   bool
}

// allowDirective is the comment prefix that starts a suppression.
const allowDirective = "//lint:allow"

// collectAllows parses every //lint:allow comment in the file set,
// returning them keyed by (filename, line). A suppression on line L covers
// findings on L (trailing comment) and on L+1 (comment on its own line),
// which is recorded by indexing the allow under both lines.
func collectAllows(fset *token.FileSet, files []*ast.File) map[string][]*allow {
	byLine := make(map[string][]*allow)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowDirective) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, allowDirective)
				fields := strings.Fields(rest)
				pos := fset.Position(c.Pos())
				a := &allow{pos: pos}
				if len(fields) < 2 {
					// Either the check or the reason is missing: a
					// suppression explains itself or it does not suppress.
					a.broken = true
				} else {
					a.check = fields[0]
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					key := lineKey(pos.Filename, line)
					byLine[key] = append(byLine[key], a)
				}
			}
		}
	}
	return byLine
}

func lineKey(filename string, line int) string {
	return fmt.Sprintf("%s:%d", filename, line)
}

// applySuppressions marks findings covered by a //lint:allow comment in
// the package they were found in, marking each matched allow as used.
// Broken allows never suppress.
func applySuppressions(findings []Finding, byLine map[string][]*allow) {
	for i := range findings {
		f := &findings[i]
		for _, a := range byLine[lineKey(f.Pos.Filename, f.Pos.Line)] {
			if !a.broken && a.check == f.Check {
				a.used = true
				f.Suppressed = true
			}
		}
	}
}

// allowFindings reports driver findings for broken and unused allows.
// ranChecks names the checks that actually ran on the package;
// knownChecks names every check the analyzer set could report anywhere,
// so an allow naming a real check that simply did not run on this package
// (an analyzer whose Match excludes it) is distinguished from a typo.
func allowFindings(byLine map[string][]*allow, ranChecks, knownChecks map[string]bool) []Finding {
	var out []Finding
	seen := make(map[*allow]bool)
	for _, allows := range byLine {
		for _, a := range allows {
			if seen[a] {
				continue
			}
			seen[a] = true
			switch {
			case a.broken:
				out = append(out, Finding{
					Check: CheckAllowSyntax,
					Pos:   a.pos,
					Message: fmt.Sprintf("malformed %s comment: want %s <check> <reason>",
						allowDirective, allowDirective),
				})
			case !a.used && ranChecks[a.check]:
				out = append(out, Finding{
					Check: CheckAllowUnused,
					Pos:   a.pos,
					Message: fmt.Sprintf("%s %s suppresses nothing; delete it or move it to the offending line",
						allowDirective, a.check),
				})
			case !a.used && knownChecks[a.check]:
				out = append(out, Finding{
					Check: CheckAllowUnused,
					Pos:   a.pos,
					Message: fmt.Sprintf("%s %s suppresses nothing: the check did not run on this package",
						allowDirective, a.check),
				})
			case !a.used:
				out = append(out, Finding{
					Check:   CheckAllowUnused,
					Pos:     a.pos,
					Message: fmt.Sprintf("%s names unknown check %q", allowDirective, a.check),
				})
			}
		}
	}
	return out
}

// sortFindings puts findings in deterministic order: by file, line,
// column, check name, then message.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}

// Run loads the packages matched by patterns (resolved relative to dir),
// runs every analyzer over them, applies //lint:allow suppressions, and
// returns all surviving findings in deterministic order. It is the single
// entry point shared by cmd/govlint and the tests.
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Finding, error) {
	all, err := RunAll(dir, patterns, analyzers, 0)
	if err != nil {
		return nil, err
	}
	kept := all[:0]
	for _, f := range all {
		if !f.Suppressed {
			kept = append(kept, f)
		}
	}
	return kept, nil
}

// RunAll is Run without the suppression filter: suppressed findings are
// returned with Suppressed set, for machine-readable output that carries
// the full picture. workers bounds the loader's type-checking pool
// (0 = automatic).
func RunAll(dir string, patterns []string, analyzers []*Analyzer, workers int) ([]Finding, error) {
	pkgs, err := LoadWorkers(dir, patterns, workers)
	if err != nil {
		return nil, err
	}
	return analyze(pkgs, analyzers), nil
}

// analyze runs the analyzers over a loaded package list and returns every
// finding — suppressed ones marked — in deterministic order.
func analyze(pkgs []*Package, analyzers []*Analyzer) []Finding {
	known := map[string]bool{CheckAllowSyntax: true, CheckAllowUnused: true}
	for _, a := range analyzers {
		known[a.Name] = true
	}

	var all []Finding
	for _, pkg := range pkgs {
		var findings []Finding
		ran := map[string]bool{CheckAllowSyntax: true, CheckAllowUnused: true}
		for _, a := range analyzers {
			if a.Match != nil && !a.Match(pkg.Path) {
				continue
			}
			ran[a.Name] = true
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Path:     pkg.Path,
				Module:   pkg.Module,
				findings: &findings,
			}
			a.Run(pass)
		}
		byLine := collectAllows(pkg.Fset, pkg.Files)
		applySuppressions(findings, byLine)
		all = append(all, findings...)
		all = append(all, allowFindings(byLine, ran, known)...)
	}
	sortFindings(all)
	return all
}
