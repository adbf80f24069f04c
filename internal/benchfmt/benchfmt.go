// Package benchfmt defines the JSON interchange format for the repo's
// benchmark trajectory: a Report is one run of the figure benchmarks
// (BENCH_<rev>.json), recorded by the root test binary's -benchjson mode.
//
// The package deliberately does not import testing: the root test binary
// converts testing.BenchmarkResult values into plain Result records.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Result is the cost of one benchmark: wall time and allocations per
// operation, plus the iteration count the numbers were averaged over so a
// reader can judge how trustworthy a short -benchtime run is.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Report is one benchmark run. Environment fields record the conditions
// the numbers were taken under, so a reader comparing two reports can
// discount differences in GOMAXPROCS or Go version.
type Report struct {
	Revision   string   `json:"revision,omitempty"`
	GoVersion  string   `json:"go_version,omitempty"`
	GoMaxProcs int      `json:"gomaxprocs,omitempty"`
	Benchtime  string   `json:"benchtime,omitempty"`
	Results    []Result `json:"results"`
}

// Add appends a result. Encode sorts, so call order does not matter.
func (r *Report) Add(res Result) { r.Results = append(r.Results, res) }

// Encode writes the report as indented JSON with results sorted by name,
// so successive runs of the same suite produce line-diffable files.
func (r *Report) Encode(w io.Writer) error {
	sort.Slice(r.Results, func(i, j int) bool { return r.Results[i].Name < r.Results[j].Name })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("benchfmt: encode: %w", err)
	}
	return nil
}
