package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// PhaseReport is the measured outcome of one arrival-schedule phase.
type PhaseReport struct {
	Name       string  `json:"name"`
	TargetRate float64 `json:"target_batches_per_sec"`
	Seconds    float64 `json:"seconds"`

	Sent   int `json:"batches_sent"`
	OK     int `json:"batches_ok"`
	Shed   int `json:"batches_shed"`   // 429 responses
	Errors int `json:"batches_errors"` // transport failures and non-429 errors

	Steps int `json:"steps"`
	Ops   int `json:"ops"`
	Pairs int `json:"pairs"`

	OpsPerSec float64 `json:"ops_per_sec"`
	ShedRate  float64 `json:"shed_rate"` // shed / sent

	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
}

// Report is the loadgen JSON artifact: configuration echo, per-phase
// results, and the whole-run totals.
type Report struct {
	Target    string            `json:"target"`
	Config    map[string]string `json:"config"`
	GoVersion string            `json:"go_version,omitempty"`
	Phases    []PhaseReport     `json:"phases"`
	Total     PhaseReport       `json:"total"`
}

// sample is one completed request observation.
type sample struct {
	latency time.Duration
	status  int // 0 = transport error
	steps   int
	ops     int
	pairs   int
}

// summarize folds samples into a PhaseReport. Latency percentiles are over
// every completed request (shed responses included: the client waited for
// them too); throughput counts only applied ops.
func summarize(name string, targetRate float64, elapsed time.Duration, samples []sample) PhaseReport {
	r := PhaseReport{
		Name:       name,
		TargetRate: targetRate,
		Seconds:    elapsed.Seconds(),
		Sent:       len(samples),
	}
	lat := make([]time.Duration, 0, len(samples))
	for _, s := range samples {
		if s.status > 0 {
			// Percentiles are over completed HTTP exchanges (shed responses
			// included — the client waited for them too); transport errors
			// and client-side drops have no meaningful latency.
			lat = append(lat, s.latency)
		}
		switch {
		case s.status == 200:
			r.OK++
			r.Steps += s.steps
			r.Ops += s.ops
			r.Pairs += s.pairs
		case s.status == 429:
			r.Shed++
		default:
			r.Errors++
		}
	}
	if r.Seconds > 0 {
		r.OpsPerSec = float64(r.Ops) / r.Seconds
	}
	if r.Sent > 0 {
		r.ShedRate = float64(r.Shed) / float64(r.Sent)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	r.P50Ms = percentileMs(lat, 0.50)
	r.P99Ms = percentileMs(lat, 0.99)
	r.P999Ms = percentileMs(lat, 0.999)
	return r
}

// percentileMs returns the p-quantile of sorted latencies in milliseconds
// (nearest-rank; 0 for an empty set).
func percentileMs(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p*float64(len(sorted)) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return float64(sorted[rank-1]) / float64(time.Millisecond)
}

// mergePhases folds per-phase reports into a whole-run total. Percentiles
// cannot be merged from percentiles, so the caller passes the combined
// sample set separately.
func mergePhases(phases []PhaseReport, all []sample, elapsed time.Duration) PhaseReport {
	total := summarize("total", 0, elapsed, all)
	for _, p := range phases {
		total.TargetRate += p.TargetRate * p.Seconds
	}
	if elapsed > 0 {
		total.TargetRate /= elapsed.Seconds()
	}
	return total
}

// writeJSONFile writes v as indented JSON to path.
func writeJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSummary renders the human-readable run summary.
func printSummary(w io.Writer, rep *Report) {
	for _, p := range append(append([]PhaseReport{}, rep.Phases...), rep.Total) {
		fmt.Fprintf(w, "%-10s %6.1fs  sent=%-6d ok=%-6d shed=%-5d err=%-4d ops/s=%-9.0f p50=%6.1fms p99=%7.1fms p999=%7.1fms shed_rate=%.3f\n",
			p.Name, p.Seconds, p.Sent, p.OK, p.Shed, p.Errors, p.OpsPerSec, p.P50Ms, p.P99Ms, p.P999Ms, p.ShedRate)
	}
}
