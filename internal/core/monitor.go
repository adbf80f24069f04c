package core

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"nntstream/internal/graph"
	"nntstream/internal/iso"
	"nntstream/internal/obs"
)

// FilterFactory builds one filter instance per shard.
type FilterFactory func() Filter

// Monitor is the continuous-monitoring engine: it drives a filter over a
// workload of queries and streams, keeps the canonical stream graphs for
// verification, and accumulates timing and effectiveness statistics.
//
// Streams are partitioned over one or more shards, each an independent
// instance of the same filter (filters keep per-stream state, so sharding by
// stream is exact — every shard sees all queries and produces the candidates
// of its own streams), and one global timestamp fans the per-stream change
// sets out to the shards that have work. The candidate set does not depend
// on the shard count; only wall-clock time does. A one-shard engine calls
// its filter inline and returns the filter's own sorted pairs.
//
// Monitor is safe for concurrent use: mutating calls (AddQuery, AddStream,
// RemoveQuery, StepAll) serialize behind a write lock, while the read paths
// (Candidates, Stats, ExactPairs, CollectMetrics) share a read lock and may
// run concurrently with one another. Filters must honor the Filter contract
// that Candidates does not mutate observable state (or must synchronize
// internally), because concurrent readers fan out to the same instances.
type Monitor struct {
	mu       sync.RWMutex
	filters  []Filter // one per shard
	workers  int      // per-shard evaluation workers handed to ParallelFilters
	loads    []int    // streams placed per shard, for least-loaded placement
	shardOf  map[StreamID]int
	queries  map[QueryID]*graph.Graph
	matchers map[QueryID]*iso.Matcher
	streams  map[StreamID]*graph.Graph
	nextQ    QueryID
	nextS    StreamID
	sealed   bool // set once the first stream is added; no more queries
	stats    Stats
	metrics  *EngineMetrics
}

// Stats accumulates per-run measurements.
type Stats struct {
	// Timestamps is the number of StepAll/Step rounds processed.
	Timestamps int
	// FilterTime is the total wall time spent inside the filter's Apply
	// and Candidates calls.
	FilterTime time.Duration
	// CandidatePairs sums the number of reported pairs over all rounds.
	CandidatePairs int64
	// TotalPairs sums streams×queries over all rounds.
	TotalPairs int64
}

// AvgTimePerTimestamp returns FilterTime divided by rounds.
func (s Stats) AvgTimePerTimestamp() time.Duration {
	if s.Timestamps == 0 {
		return 0
	}
	return s.FilterTime / time.Duration(s.Timestamps)
}

// CandidateRatio is the fraction of all (stream, query) pairs reported as
// candidates, averaged over the run — the paper's "candidate size" metric.
func (s Stats) CandidateRatio() float64 {
	if s.TotalPairs == 0 {
		return 0
	}
	return float64(s.CandidatePairs) / float64(s.TotalPairs)
}

// NewMonitor wraps one caller-built filter in a one-shard engine. The filter
// keeps whatever worker bound the caller gave it (ParallelFilters default to
// sequential), so Workers reports 0.
func NewMonitor(f Filter) *Monitor { return newMonitor([]Filter{f}, 0) }

// NewShardedMonitor builds an engine over shards filter instances (<= 0 uses
// GOMAXPROCS). The optional workers argument bounds the per-shard evaluation
// pool handed to filters that implement ParallelFilter; absent or <= 0 it is
// max(1, GOMAXPROCS/shards), so the shard fan-out times the in-shard fan-out
// tracks the machine's parallelism instead of oversubscribing it, and 1
// forces the sequential in-shard path.
func NewShardedMonitor(factory FilterFactory, shards int, workers ...int) *Monitor {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	w := 0
	if len(workers) > 0 {
		w = workers[0]
	}
	if w <= 0 {
		w = max(1, runtime.GOMAXPROCS(0)/shards)
	}
	filters := make([]Filter, shards)
	for i := range filters {
		filters[i] = factory()
		if pf, ok := filters[i].(ParallelFilter); ok {
			pf.SetWorkers(w)
		}
	}
	return newMonitor(filters, w)
}

func newMonitor(filters []Filter, workers int) *Monitor {
	return &Monitor{
		filters:  filters,
		workers:  workers,
		loads:    make([]int, len(filters)),
		shardOf:  make(map[StreamID]int),
		queries:  make(map[QueryID]*graph.Graph),
		matchers: make(map[QueryID]*iso.Matcher),
		streams:  make(map[StreamID]*graph.Graph),
	}
}

// FilterName names the filter every shard runs.
func (m *Monitor) FilterName() string { return m.filters[0].Name() }

// Workers reports the per-shard evaluation worker bound the engine set on
// its filters (0 when the filter came pre-built through NewMonitor).
func (m *Monitor) Workers() int { return m.workers }

// Shards reports the number of filter instances.
func (m *Monitor) Shards() int { return len(m.filters) }

// SetMetrics attaches registry instruments; subsequent StepAll rounds record
// into them. A nil argument detaches.
func (m *Monitor) SetMetrics(em *EngineMetrics) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.metrics = em
}

// CollectMetrics implements obs.Collector: shard-level placement gauges,
// plus the per-shard emissions of collector filters (the obs.Gather caller
// sums duplicate names across shards).
func (m *Monitor) CollectMetrics(emit func(name string, value float64)) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	emit("nntstream_engine_shards", float64(len(m.filters)))
	emit("nntstream_engine_shard_workers", float64(m.workers))
	maxLoad := 0
	for _, l := range m.loads {
		maxLoad = max(maxLoad, l)
	}
	emit("nntstream_engine_shard_streams_max", float64(maxLoad))
	for _, f := range m.filters {
		if c, ok := f.(obs.Collector); ok {
			c.CollectMetrics(emit)
		}
	}
}

// AddQuery registers a query pattern with every shard. The paper's base
// model fixes the query set before streaming starts; filters implementing
// DynamicFilter (its stated future work) also accept queries while streams
// are live.
func (m *Monitor) AddQuery(q *graph.Graph) (QueryID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sealed {
		if _, ok := m.filters[0].(DynamicFilter); !ok {
			return 0, fmt.Errorf("core: filter %s: %w", m.filters[0].Name(), ErrSealed)
		}
	}
	// The ID is allocated only on success so a failed add leaks nothing.
	id := m.nextQ
	if err := m.addQueryLocked(id, q); err != nil {
		return 0, err
	}
	return id, nil
}

// replayAddQuery registers a query under an explicit ID — the restore path
// used by snapshot loading and WAL replay, which must reproduce historical ID
// assignments exactly (including gaps left by removed queries). It skips the
// seal check: the log only ever contains operations that were accepted, so
// replay trusts it.
func (m *Monitor) replayAddQuery(id QueryID, q *graph.Graph) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.addQueryLocked(id, q)
}

// addQueryLocked registers a query on every shard all-or-nothing: when a
// shard rejects the query, the shards that already accepted it roll it back
// (via DynamicFilter.RemoveQuery when the filter supports removal), so no
// shard is left holding a query the others never saw. Callers hold m.mu.
func (m *Monitor) addQueryLocked(id QueryID, q *graph.Graph) error {
	if _, dup := m.queries[id]; dup {
		return fmt.Errorf("core: duplicate query id %d", id)
	}
	for k, f := range m.filters {
		if err := f.AddQuery(id, q); err != nil {
			for j := k - 1; j >= 0; j-- {
				df, ok := m.filters[j].(DynamicFilter)
				if !ok {
					// Non-dynamic filters cannot be rolled back; this can
					// only happen pre-seal, where the engine is still
					// unusable until a consistent AddQuery succeeds, and
					// identical instances almost always fail on shard 0
					// (before any shard accepted) anyway.
					break
				}
				if rerr := df.RemoveQuery(id); rerr != nil {
					return fmt.Errorf("core: shard %d rejected query (%v); rollback on shard %d failed: %w", k, err, j, rerr)
				}
			}
			return fmt.Errorf("core: shard %d: %w", k, err)
		}
	}
	m.queries[id] = q.Clone()
	m.matchers[id] = iso.NewMatcher(m.queries[id])
	if id >= m.nextQ {
		m.nextQ = id + 1
	}
	return nil
}

// RemoveQuery deregisters a pattern from every shard. It requires a
// DynamicFilter.
func (m *Monitor) RemoveQuery(id QueryID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.filters[0].(DynamicFilter); !ok {
		return fmt.Errorf("core: filter %s query removal: %w", m.filters[0].Name(), ErrUnsupported)
	}
	if _, ok := m.queries[id]; !ok {
		return fmt.Errorf("core: %w %d", ErrUnknownQuery, id)
	}
	for _, f := range m.filters {
		if err := f.(DynamicFilter).RemoveQuery(id); err != nil {
			return err
		}
	}
	delete(m.queries, id)
	delete(m.matchers, id)
	return nil
}

// AddStream registers a stream with starting graph g0 on the least-loaded
// shard.
func (m *Monitor) AddStream(g0 *graph.Graph) (StreamID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := m.nextS
	if err := m.addStreamLocked(id, g0); err != nil {
		return 0, err
	}
	return id, nil
}

// replayAddStream registers a stream under an explicit ID — the restore path
// used by snapshot loading and WAL replay. Placement re-runs the same
// deterministic least-loaded rule, so a replayed engine reproduces the
// original shard assignment as long as operations arrive in log order.
func (m *Monitor) replayAddStream(id StreamID, g0 *graph.Graph) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.addStreamLocked(id, g0)
}

// addStreamLocked places a stream on the least-loaded shard (fewest streams,
// ties broken by lowest shard index, so placement is deterministic). The
// attempt seals the query set even when the filter rejects the stream.
// Callers hold m.mu.
func (m *Monitor) addStreamLocked(id StreamID, g0 *graph.Graph) error {
	if _, dup := m.streams[id]; dup {
		return fmt.Errorf("core: duplicate stream id %d", id)
	}
	m.sealed = true
	shard := 0
	for i := 1; i < len(m.loads); i++ {
		if m.loads[i] < m.loads[shard] {
			shard = i
		}
	}
	if err := m.filters[shard].AddStream(id, g0); err != nil {
		return err
	}
	m.loads[shard]++
	m.shardOf[id] = shard
	m.streams[id] = g0.Clone()
	if id >= m.nextS {
		m.nextS = id + 1
	}
	return nil
}

// QueryCount and StreamCount report workload sizes.
func (m *Monitor) QueryCount() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.queries)
}

func (m *Monitor) StreamCount() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.streams)
}

// StreamGraph returns the canonical current graph of a stream. Callers must
// not mutate it; a later StepAll replaces it rather than changing it.
func (m *Monitor) StreamGraph(id StreamID) *graph.Graph {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.streams[id]
}

// Query returns a registered query graph. Callers must not mutate it.
func (m *Monitor) Query(id QueryID) *graph.Graph {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.queries[id]
}

// StepAll advances one global timestamp: each entry applies a change set to
// one stream (streams without an entry are unchanged) on that stream's
// shard, then the candidate set is collected. It returns the candidates and
// records stats.
//
// The step is atomic with respect to validation: every change set is first
// applied to a clone of its canonical graph, and any failure rejects the
// whole batch before a filter sees a single operation, so a mid-batch error
// can never leave the filters and the canonical graphs diverged, or some
// shards stepped and others not. The validated clones become the canonical
// graphs only after every shard has applied its part: a filter that fails
// mid-step leaves every canonical graph where it was.
func (m *Monitor) StepAll(changes map[StreamID]graph.ChangeSet) ([]Pair, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	staged, norms, err := m.stageChanges(changes)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := m.applyShards(norms); err != nil {
		return nil, err
	}
	applyDur := time.Since(start)
	start = time.Now()
	cands := m.collect()
	collectDur := time.Since(start)

	for id, g := range staged {
		m.streams[id] = g
	}
	m.stats.FilterTime += applyDur + collectDur
	m.stats.Timestamps++
	m.stats.CandidatePairs += int64(len(cands))
	m.stats.TotalPairs += int64(len(m.streams) * len(m.queries))
	m.metrics.observeStep(applyDur, collectDur, len(cands), m.stats, len(m.streams), len(m.queries))
	return cands, nil
}

// Step advances a single stream by one timestamp.
func (m *Monitor) Step(id StreamID, cs graph.ChangeSet) ([]Pair, error) {
	return m.StepAll(map[StreamID]graph.ChangeSet{id: cs})
}

// stageChanges validates a StepAll batch against the canonical graphs
// without mutating them: each change set is normalized and applied to a
// clone. On success it returns the staged post-state graphs and the
// normalized change sets; on any failure nothing has been touched, which is
// what makes StepAll all-or-nothing up to the filter boundary. Callers hold
// m.mu.
func (m *Monitor) stageChanges(changes map[StreamID]graph.ChangeSet) (map[StreamID]*graph.Graph, map[StreamID]graph.ChangeSet, error) {
	staged := make(map[StreamID]*graph.Graph, len(changes))
	norms := make(map[StreamID]graph.ChangeSet, len(changes))
	for id, cs := range changes {
		g, ok := m.streams[id]
		if !ok {
			return nil, nil, fmt.Errorf("core: %w %d", ErrUnknownStream, id)
		}
		norm := cs.Normalize()
		clone := g.Clone()
		if err := norm.Apply(clone); err != nil {
			return nil, nil, fmt.Errorf("core: invalid change set for stream %d: %w", id, err)
		}
		staged[id] = clone
		norms[id] = norm
	}
	return staged, norms, nil
}

// applyShards hands every shard its part of one validated timestamp and
// returns the first shard error in shard order. Callers hold m.mu.
func (m *Monitor) applyShards(norms map[StreamID]graph.ChangeSet) error {
	perShard := []map[StreamID]graph.ChangeSet{norms}
	if len(m.filters) > 1 {
		perShard = make([]map[StreamID]graph.ChangeSet, len(m.filters))
		for id, norm := range norms {
			shard := m.shardOf[id] // staging verified the stream exists
			if perShard[shard] == nil {
				perShard[shard] = make(map[StreamID]graph.ChangeSet)
			}
			perShard[shard][id] = norm
		}
	}
	errs := make([]error, len(m.filters))
	m.fanOut(func(i int) bool { return perShard[i] != nil }, func(i int, f Filter) {
		// Batch-capable filters fan the shard's whole timestamp out over
		// their own worker pool; others walk it stream by stream.
		if ba, ok := f.(BatchApplier); ok {
			if err := ba.ApplyAll(perShard[i]); err != nil {
				errs[i] = fmt.Errorf("core: filter %s shard %d: %w", f.Name(), i, err)
			}
			return
		}
		for id, cs := range perShard[i] {
			if err := f.Apply(id, cs); err != nil {
				errs[i] = fmt.Errorf("core: filter %s shard %d stream %d: %w", f.Name(), i, id, err)
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fanOut runs fn on every shard that has work and joins them: one goroutine
// per shard, or inline when a single shard has work — always the case for a
// one-shard engine, which therefore pays nothing for the generality.
// Callers hold at least a read lock.
//
//nnt:nonblocking waits only for the shards' filter calls (Apply/ApplyAll under the write lock, Candidates under a read lock), which are compute-bound and take no engine locks
func (m *Monitor) fanOut(hasWork func(shard int) bool, fn func(shard int, f Filter)) {
	var busy []int
	for i := range m.filters {
		if hasWork(i) {
			busy = append(busy, i)
		}
	}
	if len(busy) == 1 {
		fn(busy[0], m.filters[busy[0]])
		return
	}
	var wg sync.WaitGroup
	for _, i := range busy {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i, m.filters[i])
		}(i)
	}
	wg.Wait()
}

// collect gathers the shards' candidate sets concurrently; the per-shard
// goroutines only invoke the filters' Candidates, which the Filter contract
// requires to be read-safe. A lone shard's pairs are already sorted by that
// contract and are returned as they are; several shards' are merged and
// re-sorted. Callers hold at least a read lock.
func (m *Monitor) collect() []Pair {
	parts := make([][]Pair, len(m.filters))
	m.fanOut(func(int) bool { return true }, func(i int, f Filter) { parts[i] = f.Candidates() })
	if len(parts) == 1 {
		return parts[0]
	}
	var out []Pair
	for _, p := range parts {
		out = append(out, p...)
	}
	return SortPairs(out)
}

// Candidates returns the current candidate pairs without advancing time or
// recording stats.
func (m *Monitor) Candidates() []Pair {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.collect()
}

// ExactPairs computes the ground-truth joinable pairs with subgraph
// isomorphism over the canonical graphs. It is exponential in the worst
// case and intended for evaluation, not the monitoring hot path.
func (m *Monitor) ExactPairs() []Pair {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.exactPairs()
}

// exactPairs is ExactPairs for callers that hold at least a read lock.
func (m *Monitor) exactPairs() []Pair {
	var out []Pair
	for sid, g := range m.streams {
		for qid, matcher := range m.matchers {
			if matcher.Contains(g) {
				out = append(out, Pair{Stream: sid, Query: qid})
			}
		}
	}
	return SortPairs(out)
}

// VerifyNoFalseNegatives checks that every exact pair is reported by the
// filter, returning the missed pairs (empty means the filter is sound at
// this timestamp).
func (m *Monitor) VerifyNoFalseNegatives() []Pair {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return pairsMissing(m.exactPairs(), m.collect())
}

// FalsePositives returns the currently reported pairs that are not exact
// matches.
func (m *Monitor) FalsePositives() []Pair {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return pairsMissing(m.collect(), m.exactPairs())
}

// pairsMissing returns the pairs of from that are absent from in, in from's
// (sorted) order.
func pairsMissing(from, in []Pair) []Pair {
	have := make(map[Pair]bool, len(in))
	for _, p := range in {
		have[p] = true
	}
	var missing []Pair
	for _, p := range from {
		if !have[p] {
			missing = append(missing, p)
		}
	}
	return missing
}

// Stats returns accumulated statistics.
func (m *Monitor) Stats() Stats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.stats
}

// ResetStats zeroes the statistics (e.g. after a warm-up phase).
func (m *Monitor) ResetStats() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats = Stats{}
}

// engineState is the logical state a checkpoint persists: the query and
// canonical stream graphs plus the ID allocators. Filters are deterministic
// functions of this state and are rebuilt on restore.
type engineState struct {
	queries map[QueryID]*graph.Graph
	streams map[StreamID]*graph.Graph
	nextQ   QueryID
	nextS   StreamID
}

// checkpointState exposes the monitor's logical state for checkpointing. The
// returned maps and graphs are shared, not copied: the caller (the durable
// engine) holds its write-exclusion lock across serialization.
func (m *Monitor) checkpointState() engineState {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return engineState{queries: m.queries, streams: m.streams, nextQ: m.nextQ, nextS: m.nextS}
}

// nextIDs reports the IDs the next AddQuery/AddStream would assign — the
// durable engine logs an operation's ID before applying it.
func (m *Monitor) nextIDs() (QueryID, StreamID) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.nextQ, m.nextS
}

// setNextIDs raises the ID allocators (never lowers them), restoring
// top-of-range gaps a checkpoint recorded (e.g. the highest query was
// removed before the checkpoint).
func (m *Monitor) setNextIDs(q QueryID, s StreamID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextQ = max(m.nextQ, q)
	m.nextS = max(m.nextS, s)
}
