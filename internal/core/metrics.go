package core

import (
	"time"

	"nntstream/internal/obs"
)

// EngineMetrics bundles the registry instruments a Monitor records into, one
// observation per StepAll timestamp. All instruments share
// the nntstream_engine_ prefix.
type EngineMetrics struct {
	// ApplySeconds is the per-timestamp wall-clock latency of the
	// filter-apply phase, evaluation pool included.
	ApplySeconds *obs.Histogram
	// CollectSeconds is the per-timestamp latency of candidate collection.
	CollectSeconds *obs.Histogram
	// Timestamps counts StepAll rounds.
	Timestamps *obs.Counter
	// CandidatePairs counts reported pairs summed over all rounds.
	CandidatePairs *obs.Counter
	// CandidateRatio is the run-averaged fraction of (stream, query) pairs
	// reported as candidates — the paper's "candidate size" metric.
	CandidateRatio *obs.Gauge
	// Streams and Queries mirror the current workload size.
	Streams *obs.Gauge
	// Queries gauges the registered pattern count.
	Queries *obs.Gauge
}

// NewEngineMetrics registers the engine instruments in r. Calling it twice
// with the same registry returns instruments backed by the same state.
func NewEngineMetrics(r *obs.Registry) *EngineMetrics {
	return &EngineMetrics{
		ApplySeconds: r.Histogram("nntstream_engine_apply_seconds",
			"Per-timestamp filter apply latency in seconds.", nil),
		CollectSeconds: r.Histogram("nntstream_engine_collect_seconds",
			"Per-timestamp candidate collection latency in seconds.", nil),
		Timestamps: r.Counter("nntstream_engine_timestamps_total",
			"Number of StepAll rounds processed."),
		CandidatePairs: r.Counter("nntstream_engine_candidate_pairs_total",
			"Candidate pairs reported, summed over all rounds."),
		CandidateRatio: r.Gauge("nntstream_engine_candidate_ratio",
			"Run-averaged fraction of (stream, query) pairs reported as candidates."),
		Streams: r.Gauge("nntstream_engine_streams",
			"Registered stream count."),
		Queries: r.Gauge("nntstream_engine_queries",
			"Registered query count."),
	}
}

// observeStep records one StepAll round. A nil receiver is a no-op so the
// engines can call it unconditionally.
func (em *EngineMetrics) observeStep(apply, collect time.Duration, pairs int, st Stats, streams, queries int) {
	if em == nil {
		return
	}
	em.ApplySeconds.Observe(apply.Seconds())
	em.CollectSeconds.Observe(collect.Seconds())
	em.Timestamps.Inc()
	em.CandidatePairs.Add(int64(pairs))
	em.CandidateRatio.Set(st.CandidateRatio())
	em.Streams.Set(float64(streams))
	em.Queries.Set(float64(queries))
}
