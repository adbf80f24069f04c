// Command nntlint runs the project's static analysis suite (see
// internal/analysis): machine-checks for the engine's concurrency,
// durability, and determinism invariants that go vet cannot know about.
//
// Usage:
//
//	nntlint [./... | dir ...]
//
// With no arguments it analyzes every package in the module. Findings print
// as file:line:col: analyzer: message, and the exit status is 1 when any
// survive review or a package fails to load. A finding that is
// correct-but-conservative is silenced in place with a reviewed comment:
//
//	//lint:ignore <analyzer> <reason>
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"nntstream/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable driver: it returns the process exit code instead of
// calling os.Exit, so tests can assert on seeded violations.
func run(patterns []string, stdout, stderr io.Writer) int {
	// Load errors exit 1, like findings: a package that cannot be analyzed
	// must fail the build, or a syntax error would silence the whole gate.
	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintf(stderr, "nntlint: %v\n", err)
		return 1
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var pkgs []*analysis.Package
	add := func(ps ...*analysis.Package) {
		for _, p := range ps {
			if !seen[p.Path] {
				seen[p.Path] = true
				pkgs = append(pkgs, p)
			}
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			all, err := loader.LoadAll()
			if err != nil {
				fmt.Fprintf(stderr, "nntlint: %v\n", err)
				return 1
			}
			add(all...)
		default:
			pkg, err := loader.LoadDir(pat)
			if err != nil {
				fmt.Fprintf(stderr, "nntlint: %v\n", err)
				return 1
			}
			add(pkg)
		}
	}

	findings := analysis.RunAnalyzers(pkgs, analysis.Analyzers())
	cwd, _ := os.Getwd()
	for _, f := range findings {
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, f.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				f.Pos.Filename = rel
			}
		}
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "nntlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
