// Package core is the continuous-monitoring engine: it registers query
// pattern graphs and graph streams, advances the streams by graph change
// operations, and reports, at every timestamp, the possibly-joinable
// (stream, query) pairs produced by a pluggable filter (Definition 2.8).
// Queries may be registered and removed while streams are live, the
// dynamic workload the paper leaves to future work (Section II-B). Filters
// must never produce false negatives; the Monitor can verify candidates
// with exact subgraph isomorphism to measure a filter's false-positive
// rate.
package core

import (
	"cmp"
	"fmt"
	"slices"

	"nntstream/internal/graph"
	"nntstream/internal/obs"
)

// QueryID identifies a registered query pattern.
type QueryID int

// StreamID identifies a registered graph stream.
type StreamID int

// Pair is one possibly-joinable (stream, query) pair reported at a
// timestamp.
type Pair struct {
	Stream StreamID
	Query  QueryID
}

func (p Pair) String() string { return fmt.Sprintf("(G%d,Q%d)", p.Stream, p.Query) }

// ComparePairs orders pairs by (Stream, Query), the order every candidate
// set is reported in, for slices.SortFunc and slices.BinarySearchFunc.
func ComparePairs(a, b Pair) int {
	if c := cmp.Compare(a.Stream, b.Stream); c != 0 {
		return c
	}
	return cmp.Compare(a.Query, b.Query)
}

// SortPairs orders pairs by (Stream, Query) in place and returns the slice.
func SortPairs(ps []Pair) []Pair {
	slices.SortFunc(ps, ComparePairs)
	return ps
}

// Filter is a continuous subgraph-search filter. Implementations maintain
// whatever per-stream state they need; the Monitor guarantees that stream
// change sets arrive in timestamp order and that calls are not concurrent.
// Queries arrive and leave at any time: a query added while streams are
// live is evaluated against every current stream graph at once.
//
// The contract every implementation must honor: after any sequence of
// AddQuery/RemoveQuery/AddStream/Apply calls, Candidates contains every
// pair (G,Q) for which Q is a registered query subgraph-isomorphic to the
// current graph of G. False positives are permitted (fewer is better);
// false negatives are not.
//
// Candidates is additionally a read path: the engine allows multiple
// Candidates calls to run concurrently with each other (never with a
// mutating call), so implementations must either not mutate observable
// state in Candidates or synchronize such mutation internally (see gindex's
// lazy re-mining).
type Filter interface {
	// Name identifies the filter in reports and benchmarks.
	Name() string
	// AddQuery registers a query pattern.
	AddQuery(id QueryID, q *graph.Graph) error
	// RemoveQuery deregisters a pattern; it no longer appears in
	// Candidates.
	RemoveQuery(id QueryID) error
	// AddStream registers a stream with its starting graph G_0.
	AddStream(id StreamID, g0 *graph.Graph) error
	// Apply advances one stream by one timestamp's change set.
	Apply(id StreamID, cs graph.ChangeSet) error
	// Candidates returns the current possibly-joinable pairs, sorted by
	// (Stream, Query).
	Candidates() []Pair
}

// BatchApplier is an optional Filter extension: the engine hands one
// timestamp's change sets for all streams to the filter at once, so the
// filter can fan the streams' maintenance and dominance re-evaluation out
// over a bounded worker pool instead of walking the streams one by one.
//
// ApplyAll must be observationally equivalent to calling Apply once per
// entry in any order — entries address distinct streams, and the engine
// validates every change set on its canonical graph before the fan-out, so
// a mid-batch failure reports an error with the filter state unspecified,
// exactly like a failed Apply sequence.
type BatchApplier interface {
	// ApplyAll advances several streams by one timestamp's change sets.
	ApplyAll(changes map[StreamID]graph.ChangeSet) error
}

// CandidateCounter is an optional Filter extension: CandidateCount returns
// len(Candidates()) without building the list. The engine's steps whose
// callers read only the number of pairs (StepAllBatch, WAL replay) use it.
// Every in-tree filter keeps its answer as a Verdicts table and counts
// through it, so such a step costs nothing proportional to the answer.
// A filter without it, such as a wrapper that implements only Filter (the
// benchmark probe's tracedFilter), is counted through Candidates.
type CandidateCounter interface {
	CandidateCount() int
}

// ParallelFilter is implemented by filters whose evaluation fans out over
// a bounded worker pool. SetWorkers(n) bounds the pool at n goroutines;
// n <= 0 sizes it to runtime.GOMAXPROCS and n == 1 runs every batch inline
// on the caller's goroutine. Filters default to one worker until
// OpenDurableEngine (from DurableOptions.Workers) or the caller raises it,
// so the paper-faithful single-core cost model stays the default for direct
// library use. The pool is the engine's only parallelism.
type ParallelFilter interface {
	SetWorkers(n int)
}

// MetricsFilter is an optional Filter extension: the filter exports its
// structure sizes and work counters as scrape-time instruments of r. The
// engine calls RegisterMetrics when metrics are attached, and locked wraps
// each value function so it runs under the engine's read lock — the
// exclusion Candidates gets — and may read state Apply mutates.
type MetricsFilter interface {
	RegisterMetrics(r *obs.Registry, locked func(func() float64) func() float64)
}

// DynamicFilter is an alias of Filter, kept for callers that still name it.
type DynamicFilter = Filter
