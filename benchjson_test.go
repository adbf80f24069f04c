// benchjson mode: running the test binary with -benchjson out.json skips
// the normal test run and instead executes the figure-benchmark registry
// through testing.Benchmark, writing an internal/benchfmt Report. CI uses
// this to record BENCH_<rev>.json trajectories (`make benchjson`):
//
//	go test -run - -benchjson BENCH_pr.json -benchjson-rev "$(git rev-parse --short HEAD)" \
//	        -bench 'Fig|Parallel' -benchtime 100ms .
//
// The standard -bench regexp and -benchtime flags are honored (testing.Benchmark
// reads -test.benchtime itself; the regexp is applied to registry names).
package nntstream

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"testing"

	"nntstream/internal/benchfmt"
)

var (
	benchJSONOut = flag.String("benchjson", "", "write benchmark results as JSON to this file instead of running tests")
	benchJSONRev = flag.String("benchjson-rev", "", "revision label recorded in the -benchjson report")
)

type benchEntry struct {
	name string
	fn   func(*testing.B)
}

// benchRegistry lists every figure benchmark as a leaf entry. Sub-benchmark
// groups (Fig12's depth sweep) are flattened here because testing.Benchmark
// discards b.Run children; the names intentionally mirror the go test
// -bench spelling so trajectories stay comparable with ad-hoc runs.
func benchRegistry() []benchEntry {
	return []benchEntry{
		{"Fig02_GraphGrep", BenchmarkFig02_GraphGrep},
		{"Fig02_GIndex2", BenchmarkFig02_GIndex2},
		{"Fig02_NPVDSC", BenchmarkFig02_NPVDSC},
		{"Fig12_Depth/L1", func(b *testing.B) { benchFig12Depth(b, 1) }},
		{"Fig12_Depth/L2", func(b *testing.B) { benchFig12Depth(b, 2) }},
		{"Fig12_Depth/L3", func(b *testing.B) { benchFig12Depth(b, 3) }},
		{"Fig12_Depth/L4", func(b *testing.B) { benchFig12Depth(b, 4) }},
		{"Fig13_NPVQuery", BenchmarkFig13_NPVQuery},
		{"Fig13_GIndex1Query", BenchmarkFig13_GIndex1Query},
		{"Fig13_GIndex1Mining", BenchmarkFig13_GIndex1Mining},
		{"Fig13_GraphGrepQuery", BenchmarkFig13_GraphGrepQuery},
		{"Fig1415_Real_GraphGrep", BenchmarkFig1415_Real_GraphGrep},
		{"Fig1415_Real_GIndex1", BenchmarkFig1415_Real_GIndex1},
		{"Fig1415_Real_GIndex2", BenchmarkFig1415_Real_GIndex2},
		{"Fig1415_Real_NPVDSC", BenchmarkFig1415_Real_NPVDSC},
		{"Fig1415_SynSparse_GraphGrep", BenchmarkFig1415_SynSparse_GraphGrep},
		{"Fig1415_SynSparse_GIndex1", BenchmarkFig1415_SynSparse_GIndex1},
		{"Fig1415_SynSparse_GIndex2", BenchmarkFig1415_SynSparse_GIndex2},
		{"Fig1415_SynSparse_NPVDSC", BenchmarkFig1415_SynSparse_NPVDSC},
		{"Fig1415_SynDense_GraphGrep", BenchmarkFig1415_SynDense_GraphGrep},
		{"Fig1415_SynDense_GIndex2", BenchmarkFig1415_SynDense_GIndex2},
		{"Fig1415_SynDense_NPVDSC", BenchmarkFig1415_SynDense_NPVDSC},
		{"Fig16_NL", BenchmarkFig16_NL},
		{"Fig16_DSC", BenchmarkFig16_DSC},
		{"Fig16_Skyline", BenchmarkFig16_Skyline},
		{"Fig17_NL", BenchmarkFig17_NL},
		{"Fig17_DSC", BenchmarkFig17_DSC},
		{"Fig17_Skyline", BenchmarkFig17_Skyline},
		{"Parallel_NL_W1", BenchmarkParallel_NL_W1},
		{"Parallel_NL_W4", BenchmarkParallel_NL_W4},
		{"Parallel_DSC_W1", BenchmarkParallel_DSC_W1},
		{"Parallel_DSC_W4", BenchmarkParallel_DSC_W4},
		{"Parallel_Skyline_W1", BenchmarkParallel_Skyline_W1},
		{"Parallel_Skyline_W4", BenchmarkParallel_Skyline_W4},
		{"QSweep_NL/Q16", func(b *testing.B) { benchQSweep(b, "NL", 16) }},
		{"QSweep_NL/Q160", func(b *testing.B) { benchQSweep(b, "NL", 160) }},
		{"QSweep_NL/Q1600", func(b *testing.B) { benchQSweep(b, "NL", 1600) }},
		{"QSweep_Skyline/Q16", func(b *testing.B) { benchQSweep(b, "Skyline", 16) }},
		{"QSweep_Skyline/Q160", func(b *testing.B) { benchQSweep(b, "Skyline", 160) }},
		{"QSweep_Skyline/Q1600", func(b *testing.B) { benchQSweep(b, "Skyline", 1600) }},
		{"QSweep_DSC/Q16", func(b *testing.B) { benchQSweep(b, "DSC", 16) }},
		{"QSweep_DSC/Q160", func(b *testing.B) { benchQSweep(b, "DSC", 160) }},
		{"QSweep_DSC/Q1600", func(b *testing.B) { benchQSweep(b, "DSC", 1600) }},
		{"Ablation_Branch", BenchmarkAblation_Branch},
		{"Ablation_Exact", BenchmarkAblation_Exact},
		{"IngestDecode", BenchmarkIngestDecode},
		{"NPV_Dominates_Map", Benchmark_NPV_Dominates_Map},
		{"NPV_Dominates_Packed", Benchmark_NPV_Dominates_Packed},
		{"NNTMaintenance", BenchmarkNNTMaintenance},
		{"NPVRecount", BenchmarkNPVRecount},
		{"StepAllTrickle", BenchmarkStepAllTrickle},
		{"VF2HardInstance", BenchmarkVF2HardInstance},
	}
}

func TestMain(m *testing.M) {
	flag.Parse()
	if *benchJSONOut == "" {
		os.Exit(m.Run())
	}
	os.Exit(runBenchJSON())
}

func runBenchJSON() int {
	pattern := ""
	if f := flag.Lookup("test.bench"); f != nil {
		pattern = f.Value.String()
	}
	if pattern == "" {
		pattern = "." // default: everything, matching go test's -bench .
	}
	re, err := regexp.Compile(pattern)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: bad -bench regexp %q: %v\n", pattern, err)
		return 2
	}
	benchtime := ""
	if f := flag.Lookup("test.benchtime"); f != nil {
		benchtime = f.Value.String()
	}
	report := collectBenchJSON(benchRegistry(), re, benchtime)
	out, err := os.Create(*benchJSONOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 2
	}
	if err := report.Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		out.Close()
		return 2
	}
	if err := out.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d results to %s\n", len(report.Results), *benchJSONOut)
	return 0
}

// collectBenchJSON runs every registry entry matching re and converts the
// testing results into a benchfmt report. Split from runBenchJSON so tests
// can drive it with a synthetic registry.
func collectBenchJSON(entries []benchEntry, re *regexp.Regexp, benchtime string) *benchfmt.Report {
	report := &benchfmt.Report{
		Revision:   *benchJSONRev,
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Benchtime:  benchtime,
	}
	for _, e := range entries {
		if !re.MatchString(e.name) {
			continue
		}
		res := testing.Benchmark(e.fn)
		ns := float64(res.T.Nanoseconds()) / float64(res.N)
		if ns <= 0 {
			ns = 0.01 // sub-resolution benches still need a positive cost
		}
		report.Add(benchfmt.Result{
			Name:        e.name,
			Iterations:  res.N,
			NsPerOp:     ns,
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		})
		fmt.Fprintf(os.Stderr, "benchjson: %s\t%d iters\t%.0f ns/op\t%d allocs/op\n",
			e.name, res.N, ns, res.AllocsPerOp())
	}
	return report
}
