// Package measure holds the benchmark's own arithmetic — percentile
// selection, pooling of passes, span self time, /proc parsing — apart from
// the programs that use it, so it can be unit-tested without spawning
// anything.
package measure

import (
	"math"
	"sort"
)

// Median is the middle sample (the mean of the middle two for even counts).
func Median(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder are the percentiles Tail chooses from, highest first, in
// hundredths of a percent so that ranks are computed in integers.
var tailLadder = []int{9999, 9990, 9950, 9900, 9800, 9500, 9000, 7500}

// Tail returns the highest percentile of the ladder that still has at least
// ten samples beyond it, and its value (nearest rank). With fewer than 40
// samples no percentile qualifies and it returns (50, median).
func Tail(samples []float64) (pct, value float64) {
	n := len(samples)
	for _, p := range tailLadder {
		rank := (p*n + 9999) / 10000
		if n-rank >= 10 {
			s := append([]float64(nil), samples...)
			sort.Float64s(s)
			return float64(p) / 100, s[rank-1]
		}
	}
	return 50, Median(samples)
}

// Quartiles returns the first and third quartile by the method Python's
// statistics.quantiles(values, n=4) uses (exclusive, linear interpolation),
// which is what the benchmark's acceptance rule is stated in.
func Quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// Spread is (Q3 − Q1) ÷ median: the run-to-run spread as a share of the
// median.
func Spread(values []float64) float64 {
	q1, q3 := Quartiles(values)
	return (q3 - q1) / Median(values)
}

// Pass is what one pass of a workload against one fresh server measured.
type Pass struct {
	IngestMs      []float64 // one latency per ingest request
	ReadMs        []float64 // one latency per GET /v1/candidates
	AddQueryMs    []float64 // one latency per POST /v1/queries in the script
	RemoveQueryMs []float64 // one latency per DELETE /v1/queries/<id>
	Steps         int       // timestamps applied in the measured phase
	Ops           int       // edge operations in those timestamps
	Pairs         int64     // Σ candidate pairs reported by measured steps
	IngestBytes   int64     // Σ ingest request body bytes
	ReadBytes     int64     // Σ read response body bytes
	WallS         float64   // measured-phase wall time
	CPUS          float64   // server user+sys CPU over the measured phase
	SetupS        float64   // spawn → last warm-up answer
	PeakRSS       float64   // server VmHWM at the end of the measured phase, MiB
	CalibMs       []float64 // Calibrate samples taken between this pass's requests
}

// Slowdown is how much slower than nominal the reference loop ran during the
// pass (1 when it was not run).
func (p Pass) Slowdown() float64 {
	if len(p.CalibMs) == 0 {
		return 1
	}
	sum := 0.0
	for _, v := range p.CalibMs {
		sum += v
	}
	return sum / float64(len(p.CalibMs)) / NominalCalibMs
}

// EndToEnd is the seven gated metrics of one run.
type EndToEnd struct {
	SetupS         float64
	StepsPerS      float64
	IngestP50Ms    float64
	ReadP50Ms      float64
	CPUMsPerStep   float64
	PeakRSSMB      float64
	CandidateRatio float64
}

// Pool folds the passes of one run into its end-to-end metrics.
//
// Two things stand between the raw clocks and the result, both because the
// shared sandbox is not one machine but a sequence of them — identical
// passes differ by up to 1.8×, always by being slower, in phases that last
// seconds to minutes:
//
//   - every time of a pass (wall, CPU, latencies, set-up) is divided by the
//     pass's Slowdown, so the metrics read "at nominal machine speed";
//   - every timing metric is then taken from the pass where it was best.
//     Pooling the passes instead carries each disturbed pass into the result.
//
// Set-up is the median pass, as the benchmark contract asks; memory is the
// worst pass; the candidate ratio is a count and uses every pass. cells is
// live streams × live queries, the denominator of one timestamp's candidate
// ratio.
func Pool(passes []Pass, cells int) EndToEnd {
	var setup []float64
	var steps int
	var pairs int64
	m := EndToEnd{IngestP50Ms: math.Inf(1), ReadP50Ms: math.Inf(1), CPUMsPerStep: math.Inf(1)}
	for _, p := range passes {
		slow := p.Slowdown()
		setup = append(setup, p.SetupS/slow)
		steps += p.Steps
		pairs += p.Pairs
		m.StepsPerS = math.Max(m.StepsPerS, float64(p.Steps)/p.WallS*slow)
		m.IngestP50Ms = math.Min(m.IngestP50Ms, Median(p.IngestMs)/slow)
		m.ReadP50Ms = math.Min(m.ReadP50Ms, Median(p.ReadMs)/slow)
		m.CPUMsPerStep = math.Min(m.CPUMsPerStep, p.CPUS*1e3/float64(p.Steps)/slow)
		m.PeakRSSMB = math.Max(m.PeakRSSMB, p.PeakRSS)
	}
	m.SetupS = Median(setup)
	m.CandidateRatio = float64(pairs) / (float64(steps) * float64(cells))
	return m
}

// MetricValue is one reported metric.
type MetricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the line a benchmark program prints last: what the driver reads.
type Result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]MetricValue `json:"metrics"`
}
