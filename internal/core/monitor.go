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

	// The staged batch, under mu: the steps stage validated and applied to
	// the canonical graphs that flush has not yet handed to the filter. Its
	// buffers are reused across batches.
	staged []stagedStep
}

// stagedStep is one staged timestamp: its normalized change sets, their
// stream IDs in ascending order and, parallel to the IDs, the undo log of
// each change set staged on its canonical graph.
type stagedStep struct {
	norms map[StreamID]graph.ChangeSet
	ids   []StreamID
	undos []graph.Undo
}

// Stats accumulates per-run measurements.
type Stats struct {
	// Timestamps is the number of StepAll/Step rounds processed.
	Timestamps int
	// FilterTime is the total wall time spent inside the filter's Apply
	// calls and collecting each step's candidates: the list for StepAll,
	// the count for StepAllBatch. A StepApplier counts a batch's pairs
	// inside its one call, whose time is spread evenly over the steps.
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
// removed queries). It and stageRecord are the functions through which a
// logged mutation becomes engine state: the durable engine's commit, boot
// replay and checkpoint restore all call them. It returns the pairs a step
// reported, and 0 for the other kinds. A step builds its pair list into
// cands when cands is non-nil, and otherwise only counts it.
func (m *Monitor) applyRecord(r wal.Record, cands *[]Pair) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r.Kind != wal.KindStepAll {
		return 0, m.applyLocked(r)
	}
	if err := m.stage(recordChanges(r)); err != nil {
		return 0, err
	}
	_, pairs, err := m.flush(cands)
	return pairs, err
}

// stageRecord is applyRecord for one record of a durable commit: a step is
// only staged, for flushStaged to hand to the filter with the commit's
// other steps, and a record of another kind is applied at once. A commit's
// records are all steps, or one record of another kind.
func (m *Monitor) stageRecord(r wal.Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r.Kind == wal.KindStepAll {
		return m.stage(recordChanges(r))
	}
	return m.applyLocked(r)
}

// flushStaged hands the steps stageRecord staged to the filter (flush).
func (m *Monitor) flushStaged(cands *[]Pair) (applied, pairs int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.flush(cands)
}

// applyLocked applies a record that is not a step. Callers hold m.mu.
func (m *Monitor) applyLocked(r wal.Record) error {
	switch r.Kind {
	case wal.KindAddQuery:
		return m.addQueryLocked(QueryID(r.ID), r.Graph)
	case wal.KindRemoveQuery:
		return m.removeQueryLocked(QueryID(r.ID))
	case wal.KindAddStream:
		return m.addStreamLocked(StreamID(r.ID), r.Graph)
	default:
		return fmt.Errorf("core: unknown WAL record kind %d", r.Kind)
	}
}

// recordChanges is a step record's change sets by stream.
func recordChanges(r wal.Record) map[StreamID]graph.ChangeSet {
	changes := make(map[StreamID]graph.ChangeSet, len(r.Changes))
	for id, cs := range r.Changes {
		changes[StreamID(id)] = cs
	}
	return changes
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
	if err := m.stage(changes); err != nil {
		return nil, err
	}
	var cands []Pair
	if _, _, err := m.flush(&cands); err != nil {
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

// Step advances a single stream by one timestamp.
func (m *Monitor) Step(id StreamID, cs graph.ChangeSet) ([]Pair, error) {
	return m.StepAll(map[StreamID]graph.ChangeSet{id: cs})
}

// StepAllBatch applies a sequence of timestamps in order, each exactly as a
// StepAll call, and stops at the first step that fails: the steps before it
// stay applied. It returns the steps applied and the candidate pairs they
// reported — DurableEngine.StepAllBatch's contract without the shared
// fsync, which an in-memory engine has no use for. It stages the steps up
// to the first invalid one and hands them to the filter at once (flush),
// counting the pairs without building the list. It holds the write lock
// across the whole batch, so a reader sees all of it or none.
func (m *Monitor) StepAllBatch(batch []map[StreamID]graph.ChangeSet) (applied, pairs int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var serr error
	for _, changes := range batch {
		if serr = m.stage(changes); serr != nil {
			break
		}
	}
	applied, pairs, err = m.flush(nil)
	if err == nil {
		err = serr
	}
	return applied, pairs, err
}

// stage validates one timestamp and applies it to the canonical graphs in
// place, in ascending stream order, appending it to the staged batch with
// each change set's undo log, so unstage can take it back. A step naming an
// unknown stream is refused before anything changes; one whose change set
// fails validation is taken back whole, and the error names the lowest
// failing stream. Callers hold m.mu.
func (m *Monitor) stage(changes map[StreamID]graph.ChangeSet) error {
	k := len(m.staged)
	if k < cap(m.staged) {
		m.staged = m.staged[:k+1]
	} else {
		m.staged = append(m.staged, stagedStep{})
	}
	st := &m.staged[k]
	st.ids = st.ids[:0]
	for id := range changes {
		st.ids = append(st.ids, id)
	}
	slices.Sort(st.ids)
	for _, id := range st.ids {
		if _, ok := m.streams[id]; !ok {
			m.drop(k)
			return fmt.Errorf("core: %w %d", ErrUnknownStream, id)
		}
	}
	for len(st.undos) < len(st.ids) {
		st.undos = append(st.undos, nil)
	}
	st.norms = make(map[StreamID]graph.ChangeSet, len(st.ids))
	for i, id := range st.ids {
		norm := changes[id].Normalize()
		undo, err := norm.ApplyUndoable(m.streams[id], st.undos[i][:0])
		st.undos[i] = undo
		if err != nil {
			st.revert(m.streams, i)
			m.drop(k)
			return fmt.Errorf("core: %w for stream %d: %w", errInvalidChangeSet, id, err)
		}
		st.norms[id] = norm
	}
	return nil
}

// revert reverts the step's first n change sets, newest first.
func (st *stagedStep) revert(streams map[StreamID]*graph.Graph, n int) {
	for i := n - 1; i >= 0; i-- {
		st.undos[i].Revert(streams[st.ids[i]])
	}
}

// unstage takes back the staged steps from the k-th on, newest first, and
// drops them from the staged batch. Callers hold m.mu.
func (m *Monitor) unstage(k int) {
	for i := len(m.staged) - 1; i >= k; i-- {
		m.staged[i].revert(m.streams, len(m.staged[i].ids))
	}
	m.drop(k)
}

// drop truncates the staged batch to its first k steps.
func (m *Monitor) drop(k int) {
	for i := k; i < len(m.staged); i++ {
		m.staged[i].norms = nil
	}
	m.staged = m.staged[:k]
}

// flush hands the staged steps to the filter in order, records each applied
// step's stats, and empties the staged batch. It returns the steps applied
// and the pairs they reported. A StepApplier takes them in one call and
// counts their pairs itself, unless cands asks for the pair list; otherwise
// each step is one ApplyAll, or one Apply per stream in ascending order,
// followed by collecting its pairs — into cands when it is non-nil. A step
// the filter fails is rejected together with every later one: unstage
// takes them back. The batch is emptied even when the filter panics, so
// the next batch cannot hand the filter a step twice. Callers hold m.mu.
func (m *Monitor) flush(cands *[]Pair) (applied, pairs int, err error) {
	defer m.drop(0)
	if sa, ok := m.filter.(StepApplier); ok && cands == nil && len(m.staged) > 0 {
		return m.flushSteps(sa)
	}
	for k := range m.staged {
		n, err := m.flushOne(&m.staged[k], cands)
		if err != nil {
			m.unstage(k)
			return applied, pairs, err
		}
		applied++
		pairs += n
	}
	return applied, pairs, nil
}

// flushSteps is flush for a StepApplier: one ApplySteps call, whose wall
// time is spread evenly over the steps it applied, the last taking the
// rounding, so the per-step sums still hold. Callers hold m.mu.
func (m *Monitor) flushSteps(sa StepApplier) (applied, pairs int, err error) {
	steps := make([]map[StreamID]graph.ChangeSet, len(m.staged))
	for i := range m.staged {
		steps[i] = m.staged[i].norms
	}
	counts := make([]int, len(steps))
	start := time.Now()
	applied, err = sa.ApplySteps(steps, counts)
	dur := time.Since(start)
	if err != nil {
		err = fmt.Errorf("core: filter %s: %w", m.filter.Name(), err)
	}
	m.unstage(applied)
	for k, n := range counts[:applied] {
		each := dur / time.Duration(applied)
		if k == applied-1 {
			each = dur - each*time.Duration(applied-1)
		}
		m.record(each, 0, n)
		pairs += n
	}
	return applied, pairs, err
}

// flushOne hands the filter one staged step and collects its pairs: the
// list into cands when it is non-nil, otherwise the count. Callers hold
// m.mu.
func (m *Monitor) flushOne(st *stagedStep, cands *[]Pair) (int, error) {
	start := time.Now()
	if err := m.apply(st); err != nil {
		return 0, err
	}
	applyDur := time.Since(start)
	start = time.Now()
	var n int
	if cands != nil {
		*cands = m.filter.Candidates()
		n = len(*cands)
	} else {
		n = m.candidateCount()
	}
	m.record(applyDur, time.Since(start), n)
	return n, nil
}

// record adds one applied step to the stats and the metrics. Callers hold
// m.mu.
func (m *Monitor) record(apply, collect time.Duration, pairs int) {
	m.stats.FilterTime += apply + collect
	m.stats.Timestamps++
	m.stats.CandidatePairs += int64(pairs)
	m.stats.TotalPairs += int64(len(m.streams) * len(m.queries))
	m.metrics.observeStep(apply, collect, pairs, m.stats)
}

// apply hands the filter one staged timestamp. Callers hold m.mu.
func (m *Monitor) apply(st *stagedStep) error {
	// A batch-capable filter fans the whole timestamp out over its own
	// worker pool; others walk it stream by stream, in ascending order.
	if ba, ok := m.filter.(BatchApplier); ok {
		if err := ba.ApplyAll(st.norms); err != nil {
			return fmt.Errorf("core: filter %s: %w", m.filter.Name(), err)
		}
		return nil
	}
	for _, id := range st.ids {
		if err := m.filter.Apply(id, st.norms[id]); err != nil {
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
