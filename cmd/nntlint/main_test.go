package main

import (
	"encoding/json"
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

func TestListAnalyzers(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	for _, name := range []string{
		"locksafe", "sentinelerr", "mapdeterm", "walorder", "metricname",
		"blockhold", "lockorder", "ctxflow", "hotalloc",
	} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list missing %s:\n%s", name, stdout.String())
		}
	}
}

// TestLockOrderZeroCycles pins the module-wide lock hierarchy: the cluster
// and engine mutexes (coordinator, worker group, durable engine,
// monitor, WAL) must stay acyclic, or a future edge could ABBA-deadlock a
// failover against a commit.
func TestLockOrderZeroCycles(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-analyzers", "lockorder", "../../internal/cluster", "../../internal/core"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("lock acquisition cycles in cluster+core:\n%s%s", stdout.String(), stderr.String())
	}
}

// TestBlockHoldCleanOverCluster pins the PR 7 review outcome: the current
// cluster layer holds no unreviewed blocking call under a mutex (the probe
// and ship shapes that regressed live on as blockhold fixtures).
func TestBlockHoldCleanOverCluster(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-analyzers", "blockhold", "../../internal/cluster"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("blocking calls under locks in internal/cluster:\n%s%s", stdout.String(), stderr.String())
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

// TestJSONOutput checks that every -json line is a parseable object with
// the stable field set CI consumes.
func TestJSONOutput(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-json", "./testdata/seeded"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) == 0 {
		t.Fatal("no -json output")
	}
	sawSeeded := false
	for _, line := range lines {
		var f jsonFinding
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("unparseable -json line %q: %v", line, err)
		}
		if f.File == "" || f.Line <= 0 || f.Analyzer == "" || f.Message == "" {
			t.Errorf("incomplete finding: %+v", f)
		}
		if strings.Contains(f.File, "seeded.go") {
			sawSeeded = true
		}
	}
	if !sawSeeded {
		t.Errorf("no finding names seeded.go:\n%s", stdout.String())
	}
}

// TestGitHubOutput checks the ::error workflow-command shape the lint CI
// job relies on for inline annotations.
func TestGitHubOutput(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-github", "./testdata/seeded"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	for _, line := range lines {
		if !strings.HasPrefix(line, "::error file=") {
			t.Errorf("line is not a workflow command: %q", line)
		}
		if !strings.Contains(line, ",line=") || !strings.Contains(line, ",title=nntlint/") {
			t.Errorf("annotation missing line/title properties: %q", line)
		}
	}
}

func TestUnknownAnalyzerRejected(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-analyzers", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown analyzer") {
		t.Errorf("stderr missing diagnostic: %s", stderr.String())
	}
}

// TestSubsetSelection runs only sentinelerr over the seeded package and
// expects the locksafe violation to go unreported.
func TestSubsetSelection(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-analyzers", "sentinelerr", "./testdata/seeded"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "sentinelerr") || strings.Contains(out, "locksafe") {
		t.Errorf("subset selection leaked analyzers:\n%s", out)
	}
}
