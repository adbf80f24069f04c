// Package analysis is nntlint's dependency-free static analysis framework:
// a module loader built on go/parser and go/types, a small analyzer API,
// and the project-specific analyzers that machine-check the engine's
// concurrency, durability, and determinism invariants (see cmd/nntlint and
// the "Enforced invariants" section of DESIGN.md).
//
// A finding can be suppressed where the code is right and the analyzer is
// conservative, with a reviewed comment on the flagged line or the line
// above it:
//
//	//lint:ignore <analyzer> <reason>
//
// The reason is mandatory; a bare suppression is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name is the identifier used in findings and suppression comments.
	Name string
	// Run reports the analyzer's findings on one package through the pass.
	Run func(*Pass)
}

// Pass carries one (analyzer, package) run. Module is shared across every
// pass of one RunAnalyzers invocation: interprocedural analyzers read the
// whole-module call graph from it but report only the findings whose
// position lies in Pkg, so each finding surfaces exactly once.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Module   *Module
	report   func(Finding)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Finding{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Finding is one reported invariant violation.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzers returns the full suite in stable order: the three per-package
// analyzers first, then the four built on the module call graph.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		SentinelErr, MapDeterm, WALOrder,
		BlockHold, LockOrder, CtxFlow, HotAlloc,
	}
}

// suppressRe parses "//lint:ignore <analyzer> <reason>". The analyzer field
// is a comma-separated list of analyzer names.
var suppressRe = regexp.MustCompile(`^//lint:ignore\s+(\S+)(\s+(.*))?$`)

// suppression marks one //lint:ignore comment.
type suppression struct {
	line      int
	analyzers []string
	reason    string
	pos       token.Pos
}

// fileSuppressions extracts every suppression comment of a file.
func fileSuppressions(fset *token.FileSet, f *ast.File) []suppression {
	var out []suppression
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := suppressRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			out = append(out, suppression{
				line:      fset.Position(c.Pos()).Line,
				analyzers: strings.Split(m[1], ","),
				reason:    strings.TrimSpace(m[3]),
				pos:       c.Pos(),
			})
		}
	}
	return out
}

// RunAnalyzers runs each analyzer over each package, applies //lint:ignore
// suppressions, and returns the surviving findings sorted by position. A
// suppression covers findings of the named analyzers on its own line and on
// the line directly below it (the usual comment-above placement). A
// suppression without a reason, or naming an analyzer outside the suite,
// is itself a finding: it would otherwise silence nothing unnoticed.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var raw []Finding
	mod := newModule(pkgs)
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Pkg:      pkg,
				Module:   mod,
				report:   func(f Finding) { raw = append(raw, f) },
			}
			a.Run(pass)
		}
	}

	// Index suppressions by file and line.
	type key struct {
		file string
		line int
		name string
	}
	allowed := make(map[key]bool)
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	var findings []Finding
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			fname := pkg.Fset.Position(f.Pos()).Filename
			for _, s := range fileSuppressions(pkg.Fset, f) {
				bad := func(msg string) {
					findings = append(findings, Finding{Pos: pkg.Fset.Position(s.pos), Analyzer: "suppress", Message: msg})
				}
				if s.reason == "" {
					bad("lint:ignore needs a reason: //lint:ignore <analyzer> <reason>")
					continue
				}
				for _, name := range s.analyzers {
					if !known[name] {
						bad(fmt.Sprintf("lint:ignore names %q, which is not an analyzer of the suite", name))
						continue
					}
					allowed[key{fname, s.line, name}] = true
					allowed[key{fname, s.line + 1, name}] = true
				}
			}
		}
	}
	for _, f := range raw {
		if allowed[key{f.Pos.Filename, f.Pos.Line, f.Analyzer}] {
			continue
		}
		findings = append(findings, f)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings
}
