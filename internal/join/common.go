// Package join implements the paper's three strategies for continuously
// joining graph streams with query patterns in the projected vector space
// (Section IV-B):
//
//   - NL: the nested-loop baseline, re-checking dominance pair by pair —
//     every registered query against every changed stream. It is also the
//     reference oracle the optimized strategies are tested against.
//   - DSC: the dominated-set-cover method (Figure 8), which keeps dominant
//     counters per stream vertex so one NPV change touches only the
//     sorted-dimension entries it crosses. A paper baseline.
//   - Skyline: the skyline-with-early-stop method (Figure 11), which checks
//     only the maximal query vectors, prunes via per-dimension max values,
//     and probes the lowest-cardinality dimension first. The production
//     join cmd/serve runs by default.
//
// All three report a pair (G,Q) as possibly joinable iff every query vertex
// NPV is dominated by some stream vertex NPV (Lemma 4.2); they differ only
// in how that condition is maintained, so their candidate sets are
// identical — a property the tests enforce. All three are one driver,
// vecJoin, over a strategy half each (vecStream).
//
// The package also provides the branch-compatible NNT filter (Lemma 4.1,
// used for the ablation study) and the exact VF2 filter (ground truth).
package join

import (
	"cmp"
	"fmt"
	"slices"

	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/npv"
	"nntstream/internal/obs"
	"nntstream/internal/qindex"
)

// DefaultDepth is the NNT depth bound used when callers do not override it;
// the paper's Figure 12 finds depth 3 sufficient for effective filtering.
const DefaultDepth = 3

// pairTask is one (stream, query) re-evaluation unit, probed inside its
// stream's task, with the result slots the probe alone writes: the
// verdict, and the vectors scanned and the kernel calls, which the merge
// flushes. What a strategy's probe finds for its memo it keeps in its own
// vecStream, by task position.
type pairTask struct {
	q       *vecQuery
	ok      bool
	scanned int64
	tally   npv.Tally
}

// vecQuery is one registered query: the vectors that decide its verdict,
// their index refs when indexed, and its answer slot (core.Verdicts), which
// indexes every stream's per-query state.
type vecQuery struct {
	slot int32
	vecs []npv.PackedVector
	refs []int32
}

// stepEntry is one change set of a batch: its stream, the step it belongs
// to and, once its stream's task applied it, the stream's pair count after
// it.
type stepEntry struct {
	id    core.StreamID
	step  int
	cs    graph.ChangeSet
	pairs int
}

// streamRun is one stream's share of a batch, and its task: the stream's
// entries in step order, its pair count before the batch, and the position
// of the first entry that failed (len(entries) when none) with its error.
// The task writes only its run, its entries and its stream.
type streamRun struct {
	entries []stepEntry
	before  int
	failed  int
	err     error
}

// vecStream is the half of a stream's state a vector join (NL, Skyline,
// DSC) supplies on top of the stream's NPV store.
type vecStream interface {
	// reconcile seals the stream's dirty vertices, folds the transitions
	// into the strategy's own stream-side statistics, and reports whether
	// any vector changed. An indexed strategy also returns, in ascending
	// order, the queries whose verdict — given by slot in verdict — the
	// transitions may have flipped; the slice is valid until the stream's
	// next reconcile. A nil verdict means no pair of the stream is decided
	// yet, so only the statistics are built. It mutates only this stream,
	// so distinct streams reconcile independently.
	reconcile(verdict []bool) (queued []core.QueryID, changed bool)
	// probe decides each task's pair: t.ok reports whether every vector of
	// t.q is dominated by some stream vector, t.scanned how many stream
	// vectors it scanned deciding, and t.tally its kernel calls. It reads
	// the reconciled stream state and writes only the tasks and its own
	// probe scratch, so the probes see none of each other's results and
	// distinct streams probe concurrently.
	probe(ts []pairTask)
	// settle folds the probed tasks into the stream's memo, in task order,
	// and clears the probe scratch; it runs in the stream's task. forget
	// drops the memo of query slot, whose query leaves; fresh resets what
	// the stream keeps under ref, which the index just issued to a new
	// vector or freed. Only the serialized registration paths call them.
	settle(ts []pairTask)
	forget(slot int32)
	fresh(ref int32)
}

// vecJoinStream is one stream of a vecJoin: the strategy's half, the
// stream's NPV store — capped at the index's caps when indexed —
// its row of the answer, the pair tasks of the probe in progress, reused
// across steps and cleared once settled, and the stream vectors its probes
// scanned over the run.
type vecJoinStream struct {
	vecStream
	store *npv.Store
	row   *core.VerdictRow
	tasks []pairTask
	scans int64
}

// vecJoin is everything NL, Skyline and DSC have in common — which is
// everything except which query vectors decide a verdict (derive), whether
// those vectors are indexed (ix), what a stream keeps beside its
// vector space, how it names the queries to re-probe, and how a pair is
// probed against it (vecStream): query registration and removal, the batch
// driver, the answer and the metrics. The strategies embed it, so its
// exported methods are theirs.
//
// The answer is the verdicts (core.Verdicts), which also issue every
// query's slot; the index takes the same slot, so a crossed row's owners
// index the verdicts directly.
//
// With an index, each changed stream's reconcile names a superset of the
// queries whose verdict could have flipped, so the kept verdicts are exact
// by construction; the index is immutable within a timestamp. Its stores
// then seal counts capped at the index's high-water caps (qindex.Index.Cap),
// which decide the same dominance tests against every indexed vector, and
// a registration that raises a cap reseals every stream under the new caps
// (recap). Caps never fall, so a removal reseals nothing. Without one
// (NL, the plain nested loop) every changed stream re-probes every
// registered query.
type vecJoin struct {
	depth int
	// derive computes the verdict-deciding packed vectors of a query, in the
	// order probes should run; newStream builds the strategy's half of a
	// stream over its freshly built NPV store.
	derive    func(q *graph.Graph, depth int) []npv.PackedVector
	newStream func(ix *qindex.Index, store *npv.Store) vecStream

	queries map[core.QueryID]*vecQuery
	streams map[core.StreamID]*vecJoinStream
	answer  core.Verdicts
	// ix indexes the query vectors; nil (NL) makes every query a candidate.
	ix   *qindex.Index
	pool evalPool
}

func newVecJoin(depth int, ix *qindex.Index, derive func(*graph.Graph, int) []npv.PackedVector, newStream func(*qindex.Index, *npv.Store) vecStream) vecJoin {
	return vecJoin{
		depth:     depth,
		derive:    derive,
		newStream: newStream,
		queries:   make(map[core.QueryID]*vecQuery),
		streams:   make(map[core.StreamID]*vecJoinStream),
		ix:        ix,
	}
}

// SetWorkers implements core.ParallelFilter.
func (j *vecJoin) SetWorkers(n int) { j.pool.setWorkers(n) }

// AddQuery implements core.Filter; a query that arrives while streams are
// live is evaluated against every current stream immediately. Index keys
// carry the vector's position in the derived slice in their vertex slot.
func (j *vecJoin) AddQuery(id core.QueryID, q *graph.Graph) error {
	if _, ok := j.queries[id]; ok {
		return fmt.Errorf("join: duplicate query %d", id)
	}
	vq := &vecQuery{slot: j.answer.AddQuery(id), vecs: j.derive(q, j.depth)}
	j.queries[id] = vq
	if j.ix != nil {
		j.ix.Register(id, vq.slot)
		raised := len(j.streams) > 0 && j.raises(vq)
		vq.refs = make([]int32, len(vq.vecs))
		for i, u := range vq.vecs {
			ref, fresh := j.ix.Add(qindex.Key{Query: id, Vertex: graph.VertexID(i)}, u)
			vq.refs[i] = ref
			for _, s := range j.streams {
				if fresh { // a freed ref's stream state must not reach its new vector
					s.fresh(ref)
				}
			}
		}
		if raised {
			j.recap()
		}
	}
	for _, s := range j.streams {
		j.evaluate(s, vq)
	}
	return nil
}

// raises reports whether adding vq, not yet added, raises a cap: whether
// some vector of vq exceeds the index's cap in a dimension of its support.
func (j *vecJoin) raises(vq *vecQuery) bool {
	for _, u := range vq.vecs {
		for i := 0; i < u.Len(); i++ {
			if u.Count(i) > j.ix.Cap(u.Dim(i)) {
				return true
			}
		}
	}
	return false
}

// recap reseals every stream under the index's raised caps. No dominance
// by any vertex changes for a vector registered before the query — each
// one's counts are within the old caps and the new — so every verdict and
// witness stays valid, and the reseal only folds the statistics: Skyline
// folds it without the crossing walk, and DSC's counters walk it like any
// transition, which crosses only the new vectors' rows above the old caps.
func (j *vecJoin) recap() {
	for _, s := range j.streams {
		s.store.ResetCaps()
		s.reconcile(nil)
	}
}

// RemoveQuery implements core.Filter: the packed query vectors, the
// per-stream verdicts and memos, what every stream keeps under the refs the
// removal freed, and the index postings are all torn down. The caps stay,
// so no stream reseals.
func (j *vecJoin) RemoveQuery(id core.QueryID) error {
	vq, ok := j.queries[id]
	if !ok {
		return fmt.Errorf("join: unknown query %d", id)
	}
	delete(j.queries, id)
	j.answer.RemoveQuery(id)
	if j.ix != nil {
		j.ix.RemoveQuery(id)
	}
	for _, s := range j.streams {
		s.forget(vq.slot)
		for i, ref := range vq.refs {
			if len(j.ix.Entry(ref).Owners) == 0 && !slices.Contains(vq.refs[:i], ref) {
				s.fresh(ref)
			}
		}
	}
	return nil
}

// AddStream implements core.Filter. The first stream seals the index (like
// Figure 8's build phase, registration appends cheaply and sorts once).
func (j *vecJoin) AddStream(id core.StreamID, g0 *graph.Graph) error {
	if _, ok := j.streams[id]; ok {
		return fmt.Errorf("join: duplicate stream %d", id)
	}
	var capOf func(npv.Dim) int32
	if j.ix != nil {
		j.ix.Seal()
		capOf = j.ix.Cap
	}
	store := npv.NewCappedStore(g0, j.depth, capOf)
	s := &vecJoinStream{vecStream: j.newStream(j.ix, store), store: store, row: j.answer.AddStream(id)}
	j.streams[id] = s
	s.reconcile(nil)
	for _, vq := range j.queries {
		j.evaluate(s, vq)
	}
	return nil
}

// evaluate decides a pair new to the stream on the serialized path. Pairs
// decided one at a time see each other's witnesses.
func (j *vecJoin) evaluate(s *vecJoinStream, vq *vecQuery) {
	s.tasks = append(s.tasks[:0], pairTask{q: vq})
	s.probe(s.tasks)
	j.settle(s)
}

// advance brings a stream whose store just applied a change set up to date:
// reconcile seals the dirty vertices and names the queries to re-probe
// (without an index, every query once a vector changed), the probes decide
// those pairs, and settle records them. It touches only the stream's own
// state and reads the immutable index, the query table and the verdict
// slots, so distinct streams advance concurrently.
func (j *vecJoin) advance(s *vecJoinStream) {
	queued, changed := s.reconcile(s.row.BySlot())
	if changed && j.ix == nil {
		queued, _ = j.answer.Queries()
	}
	s.tasks = s.tasks[:0]
	for _, qid := range queued {
		s.tasks = append(s.tasks, pairTask{q: j.queries[qid]})
	}
	s.probe(s.tasks)
	j.settle(s)
}

// settle settles the stream's probed tasks in task (query) order: they go
// into the stream's memo, and each records its verdict in the stream's row
// and flushes its counts. No task saw another's results, and a stream
// shares no state with another, so nothing depends on the worker count.
// After the probe it is every path's whole decision. The settled tasks are
// cleared, so the reused buffer keeps no removed query alive.
func (j *vecJoin) settle(s *vecJoinStream) {
	s.vecStream.settle(s.tasks)
	for i := range s.tasks {
		t := &s.tasks[i]
		t.tally.Flush()
		j.answer.Set(s.row, t.q.slot, t.ok)
		s.scans += t.scanned
	}
	clear(s.tasks)
	s.tasks = s.tasks[:0]
}

// Apply implements core.Filter as a one-entry batch.
func (j *vecJoin) Apply(id core.StreamID, cs graph.ChangeSet) error {
	return j.ApplyAll(map[core.StreamID]graph.ChangeSet{id: cs})
}

// ApplyAll implements core.BatchApplier as a one-step ApplySteps, so a
// single step has the schedule of a batch: one task per changed stream.
func (j *vecJoin) ApplyAll(changes map[core.StreamID]graph.ChangeSet) error {
	var pairs [1]int
	_, err := j.ApplySteps([]map[core.StreamID]graph.ChangeSet{changes}, pairs[:])
	return err
}

// ApplySteps implements core.StepApplier, and is the only code path that
// advances a stream. A stream's state is its own (Sec. IV-B), so it fans
// out once per batch, one task per changed stream, and each task runs its
// stream's steps in order: NPV recount, then advance (reconcile, probe,
// settle), then the row's pair count after the step. The index is
// immutable between registrations, so the memos and the answer — and
// therefore Candidates — do not depend on the worker count, nor on how the
// steps are batched. The merge then sums, step by step, how each row's
// count moved, into the candidate count after each step.
//
// A change set that fails keeps the ops before the failing one
// (npv.Store.Apply), so its stream is still advanced after it, and the
// stream's task stops there: a reconcile consumes the stream's
// transitions, so a pair it queued and did not settle, or a transition a
// registration's reseal sealed without queuing, would never be queued
// again. The batch's error is the one of the lowest failing step, and of
// the lowest stream within it — the one a sequential walk would hit first;
// the streams that did not fail have run all their steps.
func (j *vecJoin) ApplySteps(steps []map[core.StreamID]graph.ChangeSet, pairs []int) (int, error) {
	runs := plan(steps)
	before := j.answer.Count()
	j.pool.run(len(runs), func(i int) { j.runStream(&runs[i]) })
	applied, err := len(steps), error(nil)
	clear(pairs)
	for i := range runs {
		r := &runs[i]
		if r.err != nil && r.entries[r.failed].step < applied {
			applied, err = r.entries[r.failed].step, r.err
		}
		prev := r.before
		for _, e := range r.entries[:min(r.failed+1, len(r.entries))] {
			pairs[e.step] += e.pairs - prev
			prev = e.pairs
		}
	}
	for k := range pairs {
		before += pairs[k]
		pairs[k] = before
	}
	return applied, err
}

// plan groups a batch's entries by stream, in (stream, step) order, and
// returns one run per changed stream over them, in ascending stream order.
func plan(steps []map[core.StreamID]graph.ChangeSet) []streamRun {
	var es []stepEntry
	for k, changes := range steps {
		for id, cs := range changes {
			es = append(es, stepEntry{id: id, step: k, cs: cs})
		}
	}
	slices.SortFunc(es, func(a, b stepEntry) int {
		return cmp.Or(cmp.Compare(a.id, b.id), cmp.Compare(a.step, b.step))
	})
	var runs []streamRun
	for lo, hi := 0, 0; lo < len(es); lo = hi {
		for hi = lo + 1; hi < len(es) && es[hi].id == es[lo].id; hi++ {
		}
		runs = append(runs, streamRun{entries: es[lo:hi], failed: hi - lo})
	}
	return runs
}

// runStream is one run's task: the stream applies its change sets in step
// order, advancing after each and recording its row's pair count, and
// stops after the first that fails. An unknown stream fails its first
// entry.
func (j *vecJoin) runStream(r *streamRun) {
	id := r.entries[0].id
	s, ok := j.streams[id]
	if !ok {
		r.failed, r.err = 0, fmt.Errorf("join: unknown stream %d", id)
		return
	}
	r.before = s.row.Pairs()
	for i := range r.entries {
		e := &r.entries[i]
		err := s.store.Apply(e.cs)
		j.advance(s)
		e.pairs = s.row.Pairs()
		if err != nil {
			r.failed, r.err = i, err
			return
		}
	}
}

// Candidates implements core.Filter.
func (j *vecJoin) Candidates() []core.Pair { return j.answer.Candidates() }

// CandidateCount implements core.CandidateCounter.
func (j *vecJoin) CandidateCount() int { return j.answer.Count() }

// RegisterMetrics implements core.MetricsFilter with the series the vector
// joins export under the same names: the vectors a probe compares, the
// stream vectors scanned deciding, the NNT node count the stream vectors
// project, the index postings when there is an index, and the evaluation
// pool.
func (j *vecJoin) RegisterMetrics(r *obs.Registry, locked func(func() float64) func() float64) {
	r.GaugeFunc("nntstream_filter_query_vectors",
		"Registered query vectors that decide a verdict.",
		locked(func() float64 { return float64(j.queryVectorCount()) }))
	r.GaugeFunc("nntstream_filter_stream_vectors",
		"Stream vertex vectors summed over all streams.",
		locked(func() float64 { return j.sumStreams((*npv.Store).Len) }))
	r.CounterFunc("nntstream_filter_vector_scans_total",
		"Stream vectors scanned by dominance probes. A Skyline vector with a witness counts 0.",
		locked(func() float64 {
			n := int64(0)
			for _, s := range j.streams {
				n += s.scans
			}
			return float64(n)
		}))
	r.GaugeFunc("nntstream_filter_nnt_nodes",
		"NNT nodes the stream vectors project, summed over all streams.",
		locked(func() float64 { return j.sumStreams((*npv.Store).Nodes) }))
	if j.ix != nil {
		r.GaugeFunc("nntstream_qindex_postings",
			"Query dominance index rows: one per distinct query vector and support dimension.",
			locked(func() float64 { return float64(j.ix.PostingCount()) }))
	}
	j.pool.registerMetrics(r, locked)
}

// sumStreams totals a per-store size over every stream.
func (j *vecJoin) sumStreams(size func(*npv.Store) int) float64 {
	n := 0
	for _, s := range j.streams {
		n += size(s.store)
	}
	return float64(n)
}

// queryVectorCount sums the registered verdict-deciding query vectors.
func (j *vecJoin) queryVectorCount() int {
	n := 0
	for _, vq := range j.queries {
		n += len(vq.vecs)
	}
	return n
}
