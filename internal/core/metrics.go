package core

import (
	"time"

	"nntstream/internal/obs"
)

// EngineMetrics bundles the registry instruments a Monitor records into, one
// observation per StepAll timestamp, and the registry its scrape-time gauges
// join when it is attached. All engine series share the nntstream_engine_
// prefix.
type EngineMetrics struct {
	// ApplySeconds is the per-timestamp wall-clock latency of the
	// filter-apply phase, evaluation pool included. Its _count is the number
	// of StepAll rounds. A batch a StepApplier takes in one call has its
	// apply time spread evenly over its steps, so the sum still holds.
	ApplySeconds *obs.Histogram
	// CollectSeconds is the per-timestamp latency of candidate collection:
	// the pair list for StepAll, the pair count for StepAllBatch. A
	// StepApplier counts a batch's pairs inside its apply, so its steps
	// observe 0 here.
	CollectSeconds *obs.Histogram
	// CandidatePairs counts reported pairs summed over all rounds.
	CandidatePairs *obs.Counter
	// CandidateRatio is the run-averaged fraction of (stream, query) pairs
	// reported as candidates — the paper's "candidate size" metric.
	CandidateRatio *obs.Gauge

	reg *obs.Registry
}

// NewEngineMetrics registers the engine instruments in r. Calling it twice
// with the same registry returns instruments backed by the same state.
func NewEngineMetrics(r *obs.Registry) *EngineMetrics {
	return &EngineMetrics{
		ApplySeconds: r.Histogram("nntstream_engine_apply_seconds",
			"Per-timestamp filter apply latency in seconds. A batch applied in one call is spread evenly over its steps.", nil),
		CollectSeconds: r.Histogram("nntstream_engine_collect_seconds",
			"Per-timestamp candidate collection latency in seconds. 0 for a step whose batch the filter counted itself.", nil),
		CandidatePairs: r.Counter("nntstream_engine_candidate_pairs_total",
			"Candidate pairs reported, summed over all rounds."),
		CandidateRatio: r.Gauge("nntstream_engine_candidate_ratio",
			"Run-averaged fraction of (stream, query) pairs reported as candidates."),
		reg: r,
	}
}

// bind registers m's workload sizes, and the instruments of a MetricsFilter,
// as scrape-time series whose values are read under m's read lock. Callers
// hold m.mu.
func (em *EngineMetrics) bind(m *Monitor) {
	em.reg.GaugeFunc("nntstream_engine_streams", "Registered stream count.",
		func() float64 { return float64(m.StreamCount()) })
	em.reg.GaugeFunc("nntstream_engine_queries", "Registered query count.",
		func() float64 { return float64(m.QueryCount()) })
	if mf, ok := m.filter.(MetricsFilter); ok {
		mf.RegisterMetrics(em.reg, m.locked)
	}
}

// observeStep records one StepAll round. A nil receiver is a no-op so the
// engines can call it unconditionally.
func (em *EngineMetrics) observeStep(apply, collect time.Duration, pairs int, st Stats) {
	if em == nil {
		return
	}
	em.ApplySeconds.Observe(apply.Seconds())
	em.CollectSeconds.Observe(collect.Seconds())
	em.CandidatePairs.Add(int64(pairs))
	em.CandidateRatio.Set(st.CandidateRatio())
}
