package nntstream

import (
	"regexp"
	"testing"
)

func TestBenchRegistryWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range benchRegistry() {
		if e.name == "" || e.fn == nil {
			t.Fatalf("malformed registry entry %+v", e)
		}
		if seen[e.name] {
			t.Fatalf("duplicate registry name %q", e.name)
		}
		seen[e.name] = true
	}
	// Spot-check that the rows BENCH_main.json records are present.
	for _, want := range []string{"Fig16_DSC", "Fig17_Skyline", "Parallel_DSC_W4", "Fig12_Depth/L3"} {
		if !seen[want] {
			t.Fatalf("registry missing %q", want)
		}
	}
}

func TestCollectBenchJSONFiltersAndConverts(t *testing.T) {
	ran := map[string]int{}
	entries := []benchEntry{
		{"Tiny/A", func(b *testing.B) {
			ran["Tiny/A"]++
			for i := 0; i < b.N; i++ {
				_ = i * i
			}
		}},
		{"Other/B", func(b *testing.B) {
			ran["Other/B"]++
			for i := 0; i < b.N; i++ {
				_ = i * i
			}
		}},
	}
	report := collectBenchJSON(entries, regexp.MustCompile(`^Tiny`), "10ms")
	if ran["Other/B"] != 0 {
		t.Fatal("regexp filter did not exclude Other/B")
	}
	if ran["Tiny/A"] == 0 {
		t.Fatal("Tiny/A never ran")
	}
	if len(report.Results) != 1 {
		t.Fatalf("results = %+v; want exactly Tiny/A", report.Results)
	}
	res := report.Results[0]
	if res.Name != "Tiny/A" || res.Iterations <= 0 || res.NsPerOp <= 0 {
		t.Fatalf("bad converted result %+v", res)
	}
	if report.Benchtime != "10ms" {
		t.Fatalf("benchtime not recorded: %+v", report)
	}
}
