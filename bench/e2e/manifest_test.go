package main

import (
	"encoding/json"
	"os"
	"testing"

	"nntstream/bench/gen"
)

// BENCHMARK.json repeats what the code defines (workload names and
// rationales, the end-to-end metrics with unit and bound); the driver reads
// the file, the programs use the code. This keeps the two from drifting.
func TestManifestMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skipf("no manifest beside this checkout: %v", err)
	}
	var m struct {
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != gen.ReferenceSeconds {
		t.Errorf("run_seconds %v, generator is sized for %v", m.RunSeconds, gen.ReferenceSeconds)
	}
	if len(m.Workloads) != len(gen.Specs) {
		t.Fatalf("%d workloads in the manifest, %d in gen.Specs", len(m.Workloads), len(gen.Specs))
	}
	for i, s := range gen.Specs {
		if m.Workloads[i].Name != s.Name || m.Workloads[i].Why != s.Why {
			t.Errorf("workload %d: manifest %+v, code {%s %s}", i, m.Workloads[i], s.Name, s.Why)
		}
		if len(s.Why) > 200 {
			t.Errorf("%s: rationale is %d characters, the manifest allows 200", s.Name, len(s.Why))
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in the manifest, %d in code", len(m.EndToEnd), len(endToEnd))
	}
	for i, em := range endToEnd {
		got := m.EndToEnd[i]
		if got.Name != em.name || got.Unit != em.unit || got.Bound != em.bound {
			t.Errorf("metric %d: manifest %+v, code {%s %s %v}", i, got, em.name, em.unit, em.bound)
		}
		wantBetter := "lower"
		if em.name == "steps_per_s" {
			wantBetter = "higher"
		}
		if got.Better != wantBetter {
			t.Errorf("%s: better = %q, want %q", em.name, got.Better, wantBetter)
		}
	}
}
