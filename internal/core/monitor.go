package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"nntstream/internal/graph"
	"nntstream/internal/iso"
	"nntstream/internal/wal"
)

// FilterFactory builds a fresh filter. A durable engine builds its filter
// from it on every boot, and every cluster group engine builds its own.
type FilterFactory func() Filter

// Monitor is the continuous-monitoring engine: it drives one filter over a
// workload of queries and streams, keeps the canonical stream graphs for
// verification, and accumulates timing and effectiveness statistics. The
// engine itself is sequential; a filter that implements ParallelFilter fans
// each timestamp's streams out over its own evaluation pool.
//
// Monitor is safe for concurrent use: mutating calls (AddQuery, AddStream,
// RemoveQuery, StepAll) serialize behind a write lock, while the read paths
// (Candidates, Stats, ExactPairs, the checkpoint's snapshot, and the
// scrape-time instruments SetMetrics registers) share a read lock and may
// run concurrently with one another. Filters must honor the Filter contract
// that Candidates does not mutate state, because concurrent readers call it
// on the same instance.
type Monitor struct {
	mu      sync.RWMutex
	filter  Filter
	queries map[QueryID]*graph.Graph
	streams map[StreamID]*graph.Graph
	nextQ   QueryID
	nextS   StreamID
	stats   Stats
	metrics *EngineMetrics

	// Per-step scratch, reused across StepAll calls under mu: the batch's
	// stream IDs in ascending order and, parallel to them, the undo log of
	// each change set staged on its canonical graph.
	stepIDs []StreamID
	undos   []graph.Undo
}

// Stats accumulates per-run measurements.
type Stats struct {
	// Timestamps is the number of StepAll/Step rounds processed.
	Timestamps int
	// FilterTime is the total wall time spent inside the filter's Apply
	// calls and collecting each step's candidates: the list for StepAll,
	// the count for StepAllBatch.
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

// NewMonitor builds an engine around f. It leaves f's worker bound alone,
// so a ParallelFilter the caller built stays sequential unless the caller
// raised it with SetWorkers.
func NewMonitor(f Filter) *Monitor {
	return &Monitor{
		filter:  f,
		queries: make(map[QueryID]*graph.Graph),
		streams: make(map[StreamID]*graph.Graph),
	}
}

// FilterName names the engine's filter.
func (m *Monitor) FilterName() string { return m.filter.Name() }

// SetMetrics attaches registry instruments: subsequent StepAll rounds record
// into them, and the workload sizes and the filter's instruments join the
// same registry as scrape-time series. A nil argument detaches the step
// instruments.
func (m *Monitor) SetMetrics(em *EngineMetrics) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.metrics = em
	if em != nil {
		em.bind(m)
	}
}

// locked wraps a scrape-time value function so it runs under the read lock,
// the exclusion every read path gets.
func (m *Monitor) locked(fn func() float64) func() float64 {
	return func() float64 { return m.readLocked(fn) }
}

// readLocked runs fn under the read lock.
func (m *Monitor) readLocked(fn func() float64) float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return fn()
}

// AddQuery registers a query pattern, before or after the first stream.
func (m *Monitor) AddQuery(q *graph.Graph) (QueryID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	// The ID is allocated only on success so a failed add leaks nothing.
	id := m.nextQ
	if err := m.addQueryLocked(id, q); err != nil {
		return 0, err
	}
	return id, nil
}

// addQueryLocked registers a query with the filter and, only if the filter
// accepts it, with the engine. Callers hold m.mu.
func (m *Monitor) addQueryLocked(id QueryID, q *graph.Graph) error {
	if _, dup := m.queries[id]; dup {
		return fmt.Errorf("core: duplicate query id %d", id)
	}
	if err := m.filter.AddQuery(id, q); err != nil {
		return fmt.Errorf("core: filter %s: %w", m.filter.Name(), err)
	}
	m.queries[id] = q.Clone()
	if id >= m.nextQ {
		m.nextQ = id + 1
	}
	return nil
}

// RemoveQuery deregisters a pattern.
func (m *Monitor) RemoveQuery(id QueryID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.removeQueryLocked(id)
}

// removeQueryLocked deregisters a pattern. Callers hold m.mu.
func (m *Monitor) removeQueryLocked(id QueryID) error {
	if _, ok := m.queries[id]; !ok {
		return fmt.Errorf("core: %w %d", ErrUnknownQuery, id)
	}
	if err := m.filter.RemoveQuery(id); err != nil {
		return err
	}
	delete(m.queries, id)
	return nil
}

// AddStream registers a stream with starting graph g0.
func (m *Monitor) AddStream(g0 *graph.Graph) (StreamID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := m.nextS
	if err := m.addStreamLocked(id, g0); err != nil {
		return 0, err
	}
	return id, nil
}

// addStreamLocked hands a stream to the filter. Callers hold m.mu.
func (m *Monitor) addStreamLocked(id StreamID, g0 *graph.Graph) error {
	if _, dup := m.streams[id]; dup {
		return fmt.Errorf("core: duplicate stream id %d", id)
	}
	if err := m.filter.AddStream(id, g0); err != nil {
		return err
	}
	m.streams[id] = g0.Clone()
	if id >= m.nextS {
		m.nextS = id + 1
	}
	return nil
}

// applyRecord applies one WAL record under its explicit IDs, which
// reproduce historical ID assignments exactly (including gaps left by
// removed queries). It is the one function through which a logged mutation
// becomes engine state: the durable engine's commit, boot replay and
// checkpoint restore all call it. It returns the pairs a step reported, and
// 0 for the other kinds. A step builds its pair list into cands when cands
// is non-nil, and otherwise only counts it.
func (m *Monitor) applyRecord(r wal.Record, cands *[]Pair) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch r.Kind {
	case wal.KindAddQuery:
		return 0, m.addQueryLocked(QueryID(r.ID), r.Graph)
	case wal.KindRemoveQuery:
		return 0, m.removeQueryLocked(QueryID(r.ID))
	case wal.KindAddStream:
		return 0, m.addStreamLocked(StreamID(r.ID), r.Graph)
	case wal.KindStepAll:
		changes := make(map[StreamID]graph.ChangeSet, len(r.Changes))
		for id, cs := range r.Changes {
			changes[StreamID(id)] = cs
		}
		if cands == nil {
			return m.step(changes, m.candidateCount)
		}
		return m.step(changes, func() int { *cands = m.filter.Candidates(); return len(*cands) })
	default:
		return 0, fmt.Errorf("core: unknown WAL record kind %d", r.Kind)
	}
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
// not mutate it, and it is valid until the next mutating call: StepAll
// changes it in place.
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
// one stream (streams without an entry are unchanged), then the candidate
// set is collected. It returns the candidates and records stats.
//
// The step is atomic. Each change set is normalized and applied in place to
// its canonical graph, in ascending stream order, while an undo log records
// the primitive mutations it made; staging therefore costs O(|Δ|), not a
// copy of every touched graph. A batch naming an unknown stream is rejected
// before anything changes. A change set that fails validation is taken back
// together with every set staged before it, before the filter sees a single
// operation, and the error names the lowest failing stream. A filter that
// fails mid-step has every log reverted the same way. Either way a rejected
// batch leaves each canonical graph as it was.
func (m *Monitor) StepAll(changes map[StreamID]graph.ChangeSet) ([]Pair, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var cands []Pair
	if _, err := m.step(changes, func() int { cands = m.filter.Candidates(); return len(cands) }); err != nil {
		return nil, err
	}
	return cands, nil
}

// candidateCount is the number of pairs Candidates would return. Callers
// hold m.mu.
func (m *Monitor) candidateCount() int {
	if c, ok := m.filter.(CandidateCounter); ok {
		return c.CandidateCount()
	}
	return len(m.filter.Candidates())
}

// step stages and applies one timestamp, then runs collect, which returns
// the number of candidate pairs, and records the stats. Callers hold m.mu.
func (m *Monitor) step(changes map[StreamID]graph.ChangeSet, collect func() int) (int, error) {
	norms, err := m.stageChanges(changes)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := m.apply(norms); err != nil {
		m.unstage(len(m.stepIDs))
		return 0, err
	}
	applyDur := time.Since(start)
	start = time.Now()
	pairs := collect()
	collectDur := time.Since(start)

	m.stats.FilterTime += applyDur + collectDur
	m.stats.Timestamps++
	m.stats.CandidatePairs += int64(pairs)
	m.stats.TotalPairs += int64(len(m.streams) * len(m.queries))
	m.metrics.observeStep(applyDur, collectDur, pairs, m.stats)
	return pairs, nil
}

// Step advances a single stream by one timestamp.
func (m *Monitor) Step(id StreamID, cs graph.ChangeSet) ([]Pair, error) {
	return m.StepAll(map[StreamID]graph.ChangeSet{id: cs})
}

// StepAllBatch applies a sequence of timestamps in order, each exactly as a
// StepAll call, and stops at the first step that fails: the steps before it
// stay applied. It returns the steps applied and the candidate pairs they
// reported — DurableEngine.StepAllBatch's contract without the shared
// fsync, which an in-memory engine has no use for. It counts the pairs, from
// a CandidateCounter filter without building the list. It holds the write
// lock across the whole batch, so a reader sees all of it or none.
func (m *Monitor) StepAllBatch(batch []map[StreamID]graph.ChangeSet) (applied, pairs int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, changes := range batch {
		n, err := m.step(changes, m.candidateCount)
		if err != nil {
			return applied, pairs, err
		}
		applied++
		pairs += n
	}
	return applied, pairs, nil
}

// stageChanges applies a StepAll batch to the canonical graphs in place and
// returns the normalized change sets for the filter. It sorts the batch's
// stream IDs into m.stepIDs and logs each set's mutations in the matching
// entry of m.undos, so unstage can take the batch back. On failure it has
// already reverted everything it applied. Callers hold m.mu.
func (m *Monitor) stageChanges(changes map[StreamID]graph.ChangeSet) (map[StreamID]graph.ChangeSet, error) {
	ids := m.stepIDs[:0]
	for id := range changes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	m.stepIDs = ids
	for _, id := range ids {
		if _, ok := m.streams[id]; !ok {
			return nil, fmt.Errorf("core: %w %d", ErrUnknownStream, id)
		}
	}
	for len(m.undos) < len(ids) {
		m.undos = append(m.undos, nil)
	}
	norms := make(map[StreamID]graph.ChangeSet, len(ids))
	for i, id := range ids {
		norm := changes[id].Normalize()
		undo, err := norm.ApplyUndoable(m.streams[id], m.undos[i][:0])
		m.undos[i] = undo
		if err != nil {
			m.unstage(i)
			return nil, fmt.Errorf("core: %w for stream %d: %w", errInvalidChangeSet, id, err)
		}
		norms[id] = norm
	}
	return norms, nil
}

// unstage reverts the first n change sets of the batch stageChanges staged,
// newest first. Callers hold m.mu.
func (m *Monitor) unstage(n int) {
	for i := n - 1; i >= 0; i-- {
		m.undos[i].Revert(m.streams[m.stepIDs[i]])
	}
}

// apply hands the filter one staged timestamp. Callers hold m.mu.
func (m *Monitor) apply(norms map[StreamID]graph.ChangeSet) error {
	// A batch-capable filter fans the whole timestamp out over its own
	// worker pool; others walk it stream by stream, in ascending order.
	if ba, ok := m.filter.(BatchApplier); ok {
		if err := ba.ApplyAll(norms); err != nil {
			return fmt.Errorf("core: filter %s: %w", m.filter.Name(), err)
		}
		return nil
	}
	for _, id := range m.stepIDs {
		if err := m.filter.Apply(id, norms[id]); err != nil {
			return fmt.Errorf("core: filter %s stream %d: %w", m.filter.Name(), id, err)
		}
	}
	return nil
}

// Candidates returns the current candidate pairs without advancing time or
// recording stats.
func (m *Monitor) Candidates() []Pair {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.filter.Candidates()
}

// ExactPairs computes the ground-truth joinable pairs with subgraph
// isomorphism over the canonical graphs. It is exponential in the worst
// case and intended for evaluation, not the monitoring hot path: each call
// builds one matcher per query, so the engine keeps none between calls.
func (m *Monitor) ExactPairs() []Pair {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.exactPairs()
}

// exactPairs is ExactPairs for callers that hold at least a read lock.
func (m *Monitor) exactPairs() []Pair {
	var out []Pair
	for qid, q := range m.queries {
		matcher := iso.NewMatcher(q)
		for sid, g := range m.streams {
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
	return pairsMissing(m.exactPairs(), m.filter.Candidates())
}

// FalsePositives returns the currently reported pairs that are not exact
// matches.
func (m *Monitor) FalsePositives() []Pair {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return pairsMissing(m.filter.Candidates(), m.exactPairs())
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
