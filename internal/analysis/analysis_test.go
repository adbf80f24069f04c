package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadScratch writes a throwaway single-package module and loads it, so
// framework behavior can be tested without touching the real fixtures.
func loadScratch(t *testing.T, src string) *Package {
	t.Helper()
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module scratch\n\ngo 1.24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "p")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(dir)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	if l.ModulePath != "scratch" {
		t.Fatalf("ModulePath = %q, want scratch", l.ModulePath)
	}
	pkg, err := l.LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	return pkg
}

const scratchTemplate = `package p

import "errors"

var errThing = errors.New("thing")

func compare(err error) bool {
	%s
	return err == errThing
}
`

func TestSuppressionWithReasonSilencesFinding(t *testing.T) {
	pkg := loadScratch(t, strings.Replace(scratchTemplate, "%s",
		"//lint:ignore sentinelerr identity is intended in this test", 1))
	findings := RunAnalyzers([]*Package{pkg}, Analyzers())
	if len(findings) != 0 {
		t.Fatalf("want no findings, got %v", findings)
	}
}

func TestSuppressionWithoutReasonIsAFinding(t *testing.T) {
	pkg := loadScratch(t, strings.Replace(scratchTemplate, "%s",
		"//lint:ignore sentinelerr", 1))
	findings := RunAnalyzers([]*Package{pkg}, Analyzers())
	if len(findings) != 2 {
		t.Fatalf("want 2 findings (suppress + sentinelerr), got %v", findings)
	}
	var names []string
	for _, f := range findings {
		names = append(names, f.Analyzer)
	}
	got := strings.Join(names, ",")
	if !strings.Contains(got, "suppress") || !strings.Contains(got, "sentinelerr") {
		t.Fatalf("want suppress and sentinelerr findings, got %v", findings)
	}
}

func TestSuppressionWrongAnalyzerDoesNotSilence(t *testing.T) {
	pkg := loadScratch(t, strings.Replace(scratchTemplate, "%s",
		"//lint:ignore mapdeterm wrong analyzer name", 1))
	findings := RunAnalyzers([]*Package{pkg}, Analyzers())
	if len(findings) != 1 || findings[0].Analyzer != "sentinelerr" {
		t.Fatalf("want 1 sentinelerr finding, got %v", findings)
	}
}

// A suppression naming an analyzer outside the suite (e.g. one that was
// folded into another) silences nothing, so it is reported.
func TestSuppressionUnknownAnalyzerIsAFinding(t *testing.T) {
	pkg := loadScratch(t, strings.Replace(scratchTemplate, "%s",
		"//lint:ignore locksafe,sentinelerr identity is intended in this test", 1))
	findings := RunAnalyzers([]*Package{pkg}, Analyzers())
	if len(findings) != 1 || findings[0].Analyzer != "suppress" || !strings.Contains(findings[0].Message, `"locksafe"`) {
		t.Fatalf("want 1 suppress finding naming locksafe, got %v", findings)
	}
}

func TestLoadAllCoversOwnPackage(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	joined := strings.Join(paths, "\n")
	// The linter must check itself and must not descend into fixtures.
	if !strings.Contains(joined, "nntstream/internal/analysis") {
		t.Errorf("LoadAll skipped the analysis package itself:\n%s", joined)
	}
	if strings.Contains(joined, "testdata") {
		t.Errorf("LoadAll descended into testdata:\n%s", joined)
	}
	if !strings.Contains(joined, "nntstream/internal/core") || !strings.Contains(joined, "nntstream/cmd/serve") {
		t.Errorf("LoadAll missing expected module packages:\n%s", joined)
	}
}

// TestLoadSkipsFilesTheBuildExcludes: a package that pairs per-platform
// files declares the same name in each, so the loader type-checks only the
// files the go command would compile here.
func TestLoadSkipsFilesTheBuildExcludes(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":       "module scratch\n\ngo 1.24\n",
		"p/p.go":       "package p\n\nfunc f() int { return g() }\n",
		"p/g.go":       "//go:build !nosuchtag\n\npackage p\n\nfunc g() int { return 1 }\n",
		"p/g_other.go": "//go:build nosuchtag\n\npackage p\n\nfunc g() int { return 2 }\n",
	}
	if err := os.Mkdir(filepath.Join(root, "p"), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(root, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := l.LoadDir(filepath.Join(root, "p"))
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if len(pkg.Files) != 2 {
		t.Fatalf("loaded %d files; want p.go and g.go", len(pkg.Files))
	}
}
