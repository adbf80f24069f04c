package main

import (
	"testing"
	"time"

	"nntstream/internal/server"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSummarize(t *testing.T) {
	samples := []sample{
		{latency: ms(10), status: 200, steps: 8, ops: 32, pairs: 3},
		{latency: ms(20), status: 200, steps: 8, ops: 32, pairs: 1},
		{latency: ms(30), status: 429},
		{latency: ms(999), status: 0},  // transport error: no latency sample
		{latency: ms(888), status: -1}, // client-side drop: no latency sample
		{latency: ms(40), status: 500},
	}
	r := summarize("sustain", 50, 2*time.Second, samples)
	if r.Sent != 6 || r.OK != 2 || r.Shed != 1 || r.Errors != 3 {
		t.Fatalf("counts = sent %d ok %d shed %d err %d; want 6/2/1/3", r.Sent, r.OK, r.Shed, r.Errors)
	}
	if r.Steps != 16 || r.Ops != 64 || r.Pairs != 4 {
		t.Fatalf("throughput = steps %d ops %d pairs %d; want 16/64/4", r.Steps, r.Ops, r.Pairs)
	}
	if r.OpsPerSec != 32 {
		t.Fatalf("OpsPerSec = %v; want 32 (64 ops / 2s)", r.OpsPerSec)
	}
	if want := 1.0 / 6; r.ShedRate != want {
		t.Fatalf("ShedRate = %v; want %v", r.ShedRate, want)
	}
	// Percentiles cover completed HTTP exchanges only (200, 429, 500) —
	// transport errors and drops have no meaningful latency.
	if r.P50Ms != 20 {
		t.Fatalf("P50Ms = %v; want 20", r.P50Ms)
	}
	if r.P99Ms != 40 || r.P999Ms != 40 {
		t.Fatalf("tail = p99 %v p999 %v; want 40/40", r.P99Ms, r.P999Ms)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	r := summarize("sustain", 50, time.Second, nil)
	if r.Sent != 0 || r.OpsPerSec != 0 || r.ShedRate != 0 || r.P50Ms != 0 {
		t.Fatalf("empty summary = %+v; want zeros", r)
	}
}

func TestPercentileMs(t *testing.T) {
	sorted := []time.Duration{ms(1), ms(2), ms(3), ms(4), ms(5), ms(6), ms(7), ms(8), ms(9), ms(10)}
	cases := []struct {
		p    float64
		want float64
	}{
		{0.50, 5}, {0.99, 10}, {0.999, 10}, {0.10, 1}, {1.0, 10},
	}
	for _, tc := range cases {
		if got := percentileMs(sorted, tc.p); got != tc.want {
			t.Errorf("percentileMs(p=%v) = %v; want %v", tc.p, got, tc.want)
		}
	}
	if got := percentileMs(nil, 0.5); got != 0 {
		t.Errorf("percentileMs(empty) = %v; want 0", got)
	}
	if got := percentileMs(sorted[:1], 0.001); got != 1 {
		t.Errorf("percentileMs(single, low p) = %v; want 1 (rank clamps to 1)", got)
	}
}

func TestMergePhases(t *testing.T) {
	all := []sample{
		{latency: ms(10), status: 200, ops: 100},
		{latency: ms(50), status: 429},
	}
	phases := []PhaseReport{
		{Name: "sustain", TargetRate: 50, Seconds: 10},
		{Name: "overload", TargetRate: 300, Seconds: 5},
	}
	total := mergePhases(phases, all, 15*time.Second)
	if total.Name != "total" || total.Sent != 2 {
		t.Fatalf("total = %+v", total)
	}
	// Time-weighted mean of the phase rates: (50*10 + 300*5) / 15.
	if want := (50.0*10 + 300*5) / 15; total.TargetRate != want {
		t.Fatalf("TargetRate = %v; want %v", total.TargetRate, want)
	}
}

// TestWorkloadBatchesAreCanonical feeds generated batches through the real
// server-side decoder: every frame the generator emits must decode cleanly,
// or load results would measure rejection speed instead of ingest.
func TestWorkloadBatchesAreCanonical(t *testing.T) {
	w := newWorkload(1, 3, 8, 4, 8)
	for i := range w.streams {
		w.streams[i].id = i
		w.streams[i].nextVertex = 2
		w.streams[i].live = append(w.streams[i].live, [2]int32{0, 1})
	}
	seen := 0
	for b := 0; b < 50; b++ {
		body := w.nextBatch()
		for _, line := range splitLines(body) {
			if len(line) == 0 {
				continue
			}
			var d server.IngestDecoder
			if _, err := d.DecodeStep(line); err != nil {
				t.Fatalf("batch %d produced an invalid frame: %v\n%s", b, err, line)
			}
			seen++
		}
	}
	if want := 50 * 8; seen != want {
		t.Fatalf("decoded %d frames; want %d", seen, want)
	}
}

func splitLines(b []byte) [][]byte {
	var out [][]byte
	start := 0
	for i, c := range b {
		if c == '\n' {
			out = append(out, b[start:i])
			start = i + 1
		}
	}
	if start < len(b) {
		out = append(out, b[start:])
	}
	return out
}
