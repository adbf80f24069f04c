package measure

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("Median reordered its input: %v", in)
	}
}

// The tail percentile must leave at least ten samples beyond it.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n       int
		wantPct float64
	}{
		{30, 50},      // nothing qualifies
		{40, 75},      // rank 30, 10 beyond
		{100, 90},     // p90: rank 90, 10 beyond; p95 leaves 5
		{199, 90},     // p95: rank 190, only 9 beyond
		{200, 95},     // p95: rank 190, 10 beyond
		{999, 98},     // p99: rank 990, only 9 beyond
		{1000, 99},    // p99: rank 990, 10 beyond
		{2000, 99.5},  // rank 1990
		{10000, 99.9}, // rank 9990
		{100000, 99.99},
	}
	for _, c := range cases {
		pct, v := Tail(seq(c.n))
		if pct != c.wantPct {
			t.Errorf("Tail(n=%d) chose p%v, want p%v", c.n, pct, c.wantPct)
			continue
		}
		if pct != 50 && float64(c.n)-v < 10 {
			t.Errorf("Tail(n=%d) = %v leaves only %v samples beyond", c.n, v, float64(c.n)-v)
		}
	}
}

// Reference values from Python: statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{[]float64{10, 20, 30, 40, 50}, 15, 45},
		{[]float64{1, 2}, 0.75, 2.25}, // exclusive method extrapolates
		{[]float64{7, 1, 3, 9, 5, 4}, 2.5, 7.5},
	}
	for _, c := range cases {
		q1, q3 := Quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("Quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
	if got := Spread(seq(10)); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("Spread(1..10) = %v, want 1", got)
	}
}

func TestPoolTakesTheBestPass(t *testing.T) {
	passes := []Pass{
		{IngestMs: []float64{1, 1, 1}, ReadMs: []float64{5}, Steps: 3, Pairs: 6, WallS: 1, CPUS: 0.5, SetupS: 3, PeakRSS: 10},
		{IngestMs: []float64{9, 9}, ReadMs: []float64{7}, Steps: 2, Pairs: 4, WallS: 3, CPUS: 1.5, SetupS: 1, PeakRSS: 30},
		{IngestMs: []float64{2}, ReadMs: []float64{4}, Steps: 5, Pairs: 10, WallS: 1, CPUS: 1, SetupS: 2, PeakRSS: 20},
	}
	m := Pool(passes, 4)
	check := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	check("setup_s (median pass)", m.SetupS, 2)
	check("steps_per_s (fastest pass)", m.StepsPerS, 5)
	check("ingest_p50_ms (lowest pass median)", m.IngestP50Ms, 1)
	check("read_p50_ms (lowest pass median)", m.ReadP50Ms, 4)
	check("cpu_ms_per_step (cheapest pass)", m.CPUMsPerStep, 500.0/3)
	check("peak_rss_mb (worst pass)", m.PeakRSSMB, 30)
	check("candidate_ratio (all passes)", m.CandidateRatio, 20.0/(10*4))
}

func TestPoolDividesByTheMachineSlowdown(t *testing.T) {
	quiet := Pass{IngestMs: []float64{4}, ReadMs: []float64{2}, Steps: 10, Pairs: 10, WallS: 1, CPUS: 1, SetupS: 1, PeakRSS: 5,
		CalibMs: []float64{NominalCalibMs, NominalCalibMs}}
	// The same pass on a machine running at half speed: every clock doubled,
	// the reference loop included.
	loud := quiet
	loud.IngestMs, loud.ReadMs = []float64{8}, []float64{4}
	loud.WallS, loud.CPUS, loud.SetupS = 2, 2, 2
	loud.CalibMs = []float64{2 * NominalCalibMs, 2 * NominalCalibMs}
	if got := loud.Slowdown(); got != 2 {
		t.Fatalf("Slowdown = %v, want 2", got)
	}
	if got := (Pass{}).Slowdown(); got != 1 {
		t.Fatalf("Slowdown without samples = %v, want 1", got)
	}
	a, b := Pool([]Pass{quiet}, 1), Pool([]Pass{loud}, 1)
	if a != b {
		t.Errorf("a pass at half machine speed pooled to %+v, at full speed to %+v", b, a)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []Span{
		{Name: "request", Start: 0, End: 100, Parent: -1},
		{Name: "engine", Start: 10, End: 90, Parent: 0},
		// Two shards overlapping on [30,50]: union covers [20,60] = 40.
		{Name: "apply", Start: 20, End: 50, Parent: 1},
		{Name: "apply", Start: 30, End: 60, Parent: 1},
		// A child fully inside another, and one leaking past its parent.
		{Name: "sync", Start: 70, End: 80, Parent: 1},
		{Name: "sync", Start: 72, End: 78, Parent: 1},
		{Name: "late", Start: 85, End: 120, Parent: 1},
	}
	self := SelfTimes(spans)
	want := []int64{20, 80 - 40 - 10 - 5, 30, 30, 10, 6, 35}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] (%s) = %d, want %d", i, spans[i].Name, self[i], want[i])
		}
	}
}

func TestParseStatCPU(t *testing.T) {
	// The command contains spaces and a ')' to make field counting hard.
	stat := []byte("4242 (serve (v2) x) S 1 4242 4242 0 -1 4194304 1200 0 0 0 250 50 0 0 20 0 7 0 123456 1000000 5000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0")
	got, err := ParseStatCPU(stat)
	if err != nil || got != 3.0 {
		t.Errorf("ParseStatCPU = %v, %v; want 3.0 (250+50 ticks)", got, err)
	}
	if _, err := ParseStatCPU([]byte("no parens here")); err == nil {
		t.Error("ParseStatCPU accepted a line without a command field")
	}
	if _, err := ParseStatCPU([]byte("1 (x) S 1 2")); err == nil {
		t.Error("ParseStatCPU accepted a truncated line")
	}
}

func TestParseStatusKB(t *testing.T) {
	status := []byte("Name:\tserve\nVmPeak:\t  900000 kB\nVmHWM:\t   73344 kB\nVmRSS:\t   70000 kB\n")
	if got, err := ParseStatusKB(status, "VmHWM"); err != nil || got != 73344 {
		t.Errorf("VmHWM = %v, %v", got, err)
	}
	if _, err := ParseStatusKB(status, "VmSwap"); err == nil {
		t.Error("missing key not reported")
	}
	if _, err := ParseStatusKB([]byte("VmHWM:\t12 MB\n"), "VmHWM"); err == nil {
		t.Error("wrong unit not reported")
	}
}
