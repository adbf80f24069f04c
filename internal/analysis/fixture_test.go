package analysis

import (
	"go/ast"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// quotedRe extracts the backtick-quoted regexes of a "// want" expectation
// comment. Backticks keep regex metacharacters and quoted message fragments
// readable in the fixtures.
var quotedRe = regexp.MustCompile("`([^`]*)`")

// testFixture runs one analyzer over its testdata/src/<name> package and
// checks the findings against the fixture's `// want "regex"` comments: every
// finding must match a want on its line, and every want must be consumed.
func testFixture(t *testing.T, a *Analyzer) {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", a.Name))
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}

	type want struct {
		re      *regexp.Regexp
		matched bool
	}
	wants := make(map[int][]*want)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				line := pkg.Fset.Position(c.Pos()).Line
				ms := quotedRe.FindAllStringSubmatch(c.Text[idx:], -1)
				if len(ms) == 0 {
					t.Fatalf("%s:%d: malformed want comment %q", a.Name, line, c.Text)
				}
				for _, m := range ms {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regex %q: %v", a.Name, line, m[1], err)
					}
					wants[line] = append(wants[line], &want{re: re})
				}
			}
		}
	}

	for _, f := range RunAnalyzers([]*Package{pkg}, []*Analyzer{a}) {
		matched := false
		for _, w := range wants[f.Pos.Line] {
			if !w.matched && w.re.MatchString(f.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for line, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: no finding on line %d matching %q", a.Name, line, w.re)
			}
		}
	}
}

func TestLockSafeFixture(t *testing.T)    { testFixture(t, LockSafe) }
func TestSentinelErrFixture(t *testing.T) { testFixture(t, SentinelErr) }
func TestMapDetermFixture(t *testing.T)   { testFixture(t, MapDeterm) }
func TestWALOrderFixture(t *testing.T)    { testFixture(t, WALOrder) }
func TestBlockHoldFixture(t *testing.T)   { testFixture(t, BlockHold) }
func TestLockOrderFixture(t *testing.T)   { testFixture(t, LockOrder) }
func TestCtxFlowFixture(t *testing.T)     { testFixture(t, CtxFlow) }
func TestHotAllocFixture(t *testing.T)    { testFixture(t, HotAlloc) }

// TestFixturesHaveFlaggedAndCleanCases guards the fixtures themselves: each
// one must exercise both sides of its analyzer.
func TestFixturesHaveFlaggedAndCleanCases(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	for _, a := range Analyzers() {
		pkg, err := l.LoadDir(filepath.Join("testdata", "src", a.Name))
		if err != nil {
			t.Fatalf("LoadDir(%s): %v", a.Name, err)
		}
		findings := RunAnalyzers([]*Package{pkg}, []*Analyzer{a})
		if len(findings) == 0 {
			t.Errorf("%s fixture has no flagged cases", a.Name)
		}
		clean := 0
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && strings.HasPrefix(fd.Name.Name, "good") {
					clean++
				}
			}
		}
		if clean == 0 {
			t.Errorf("%s fixture has no good* (clean) cases", a.Name)
		}
	}
}
