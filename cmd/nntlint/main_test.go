package main

import (
	"strings"
	"testing"
)

// TestSeededViolationsExitNonzero proves the driver actually fails the build
// on findings: the seeded package violates three analyzers at once.
func TestSeededViolationsExitNonzero(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"./testdata/seeded"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"locksafe", "mapdeterm", "sentinelerr", "seeded.go:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "/root/") || strings.Contains(out, "\\root\\") {
		t.Errorf("findings should print module-relative paths:\n%s", out)
	}
}

// TestCleanTreeExitsZero is the self-hosting gate: the module — including
// internal/analysis itself — must be clean under its own linter.
func TestCleanTreeExitsZero(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"./..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
}

// TestLoadErrorExitsOne guards the gate itself: a package that cannot be
// loaded must fail the run like a finding would, not slip through.
func TestLoadErrorExitsOne(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"./testdata/does-not-exist"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "does-not-exist") {
		t.Errorf("stderr should name the failing directory: %s", stderr.String())
	}
}
