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

// batchStreamIDs extracts a change batch's stream IDs in ascending order.
// The fan-out indexes tasks by position in this slice, so a fixed order is
// what makes the parallel merge — and the error reported for an invalid
// batch — deterministic.
func batchStreamIDs(changes map[core.StreamID]graph.ChangeSet) []core.StreamID {
	ids := make([]core.StreamID, 0, len(changes))
	for id := range changes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// sortedQueryIDs extracts registered query IDs in ascending order — the
// pair-task enumeration order of the batch path.
func sortedQueryIDs(m map[core.QueryID]*vecQuery) []core.QueryID {
	qids := make([]core.QueryID, 0, len(m))
	for qid := range m {
		qids = append(qids, qid)
	}
	slices.Sort(qids)
	return qids
}

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
// their index refs when indexed, and a dense slot, recycled after
// RemoveQuery, that indexes every stream's per-query state.
type vecQuery struct {
	id   core.QueryID
	slot int32
	vecs []npv.PackedVector
	refs []int32
}

// runStreams is the per-stream stage every ApplyAll runs: step runs once
// per batch entry, fanned out over the pool with one result slot per
// entry. It returns the batch's stream IDs in slot order and the
// lowest-slot error, so a failing batch reports the error a sequential walk
// would have hit first. step must touch only its own stream's state and
// slot i.
func (p *evalPool) runStreams(changes map[core.StreamID]graph.ChangeSet, step func(i int, id core.StreamID, cs graph.ChangeSet) error) ([]core.StreamID, error) {
	ids := batchStreamIDs(changes)
	errs := make([]error, len(ids))
	p.run(len(ids), func(i int) { errs[i] = step(i, ids[i], changes[ids[i]]) })
	for _, err := range errs {
		if err != nil {
			return ids, err
		}
	}
	return ids, nil
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
	// and clears the probe scratch; forget drops the memo of query slot,
	// whose query leaves; fresh resets what the stream keeps under ref,
	// which the index just issued to a new vector or freed. Only the
	// serialized paths call them.
	settle(ts []pairTask)
	forget(slot int32)
	fresh(ref int32)
}

// vecJoinStream is one stream of a vecJoin: the strategy's half, the
// stream's NPV store — capped at the index's caps when indexed —
// the cached verdict of every registered query by slot, and the pair
// tasks of the probe in progress, reused across steps and cleared once
// settled.
type vecJoinStream struct {
	vecStream
	id      core.StreamID
	store   *npv.Store
	verdict []bool
	tasks   []pairTask
}

// vecJoin is everything NL, Skyline and DSC have in common — which is
// everything except which query vectors decide a verdict (derive), whether
// those vectors are indexed (indexed), what a stream keeps beside its
// vector space, how it names the queries to re-probe, and how a pair is
// probed against it (vecStream): query registration and removal, the batch
// driver, the answer and the metrics. The strategies embed it, so its
// exported methods are theirs.
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
	// answer is the candidate set in (Stream, Query) order. Every verdict
	// write that flips a verdict patches it, so a read is a copy.
	answer []core.Pair
	// ix issues every query's slot, so a slot is the same in vecQuery and
	// in the postings. It holds the query vectors only when indexed;
	// otherwise every query is a candidate.
	ix      *qindex.Index
	indexed bool
	// scans counts stream vectors scanned by probes over the run. Written
	// only on the serialized paths — pair tasks report per-task counts that
	// are merged after the join — and read at scrape time under the engine's
	// read lock.
	scans int64
	pool  evalPool
}

func newVecJoin(depth int, indexed bool, derive func(*graph.Graph, int) []npv.PackedVector, newStream func(*qindex.Index, *npv.Store) vecStream) vecJoin {
	return vecJoin{
		depth:     depth,
		derive:    derive,
		newStream: newStream,
		queries:   make(map[core.QueryID]*vecQuery),
		streams:   make(map[core.StreamID]*vecJoinStream),
		ix:        qindex.New(),
		indexed:   indexed,
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
	vq := &vecQuery{id: id, slot: j.ix.Register(id), vecs: j.derive(q, j.depth)}
	j.queries[id] = vq
	if j.indexed {
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
	j.ix.RemoveQuery(id)
	for _, s := range j.streams {
		s.verdict[vq.slot] = false
		s.forget(vq.slot)
		for i, ref := range vq.refs {
			if len(j.ix.Entry(ref).Owners) == 0 && !slices.Contains(vq.refs[:i], ref) {
				s.fresh(ref)
			}
		}
	}
	j.answer = slices.DeleteFunc(j.answer, func(p core.Pair) bool { return p.Query == id })
	return nil
}

// AddStream implements core.Filter. The first stream seals the index (like
// Figure 8's build phase, registration appends cheaply and sorts once).
func (j *vecJoin) AddStream(id core.StreamID, g0 *graph.Graph) error {
	if _, ok := j.streams[id]; ok {
		return fmt.Errorf("join: duplicate stream %d", id)
	}
	j.ix.Seal()
	var capOf func(npv.Dim) int32
	if j.indexed {
		capOf = j.ix.Cap
	}
	store := npv.NewCappedStore(g0, j.depth, capOf)
	s := &vecJoinStream{vecStream: j.newStream(j.ix, store), id: id, store: store}
	j.streams[id] = s
	s.reconcile(nil)
	for _, vq := range j.queries {
		j.evaluate(s, vq)
	}
	return nil
}

// evaluate decides a pair new to the stream on the serialized path, after
// sizing the stream's verdicts for the query's slot. Pairs decided one at a
// time see each other's witnesses.
func (j *vecJoin) evaluate(s *vecJoinStream, vq *vecQuery) {
	if n := int(vq.slot) + 1; n > len(s.verdict) {
		s.verdict = append(s.verdict, make([]bool, n-len(s.verdict))...)
	}
	s.tasks = append(s.tasks[:0], pairTask{q: vq})
	s.probe(s.tasks)
	j.settleAll(s)
}

// settleAll settles the stream's probed tasks on the serialized path, in
// task (query) order: they go into the stream's memo, and each records its
// verdict — patching the answer — and flushes its counts. No task saw
// another's results, so nothing depends on the worker count. It is
// ApplyAll's merge and, after the probe, the registration paths' whole
// decision. The settled tasks are cleared, so the reused buffer keeps no
// removed query alive.
func (j *vecJoin) settleAll(s *vecJoinStream) {
	s.settle(s.tasks)
	for i := range s.tasks {
		t := &s.tasks[i]
		t.tally.Flush()
		j.setVerdict(s, t.q, t.ok)
		j.scans += t.scanned
	}
	clear(s.tasks)
	s.tasks = s.tasks[:0]
}

// setVerdict records a pair's verdict and, where it flips, patches the
// answer: the pair is in the answer iff its verdict is true.
func (j *vecJoin) setVerdict(s *vecJoinStream, vq *vecQuery, ok bool) {
	if s.verdict[vq.slot] == ok {
		return
	}
	s.verdict[vq.slot] = ok
	p := core.Pair{Stream: s.id, Query: vq.id}
	i, _ := slices.BinarySearchFunc(j.answer, p, core.ComparePairs)
	if ok {
		j.answer = slices.Insert(j.answer, i, p)
	} else {
		j.answer = slices.Delete(j.answer, i, i+1)
	}
}

// Apply implements core.Filter as a one-entry batch.
func (j *vecJoin) Apply(id core.StreamID, cs graph.ChangeSet) error {
	return j.ApplyAll(map[core.StreamID]graph.ChangeSet{id: cs})
}

// ApplyAll implements core.BatchApplier, and is the only code path that
// advances a stream. It fans out once, one task per changed stream: NPV
// recount; reconcile, which seals the stream's dirty vertices and names
// the queries to re-probe from the immutable index, the stream's own
// verdicts and memos, and atomic counters (without an index, every query);
// and the probes of those pairs into the stream's own task slots. A task
// touches only its stream's state, so it is race-free. One serialized pass
// then settles the tasks in (stream, query) order (settleAll), so the
// memos and the answer — and therefore Candidates — do not depend on the
// worker count. A change set that fails keeps the ops before the failing
// one (npv.Store.Apply), so every known stream of a failed batch is still
// reconciled, probed and settled before the lowest-slot error is reported:
// a reconcile consumes the stream's transitions, so a pair it queued and
// did not settle, or a transition a registration's reseal sealed without
// queuing, would never be queued again.
func (j *vecJoin) ApplyAll(changes map[core.StreamID]graph.ChangeSet) error {
	var allQ []core.QueryID
	if !j.indexed {
		allQ = sortedQueryIDs(j.queries)
	}
	ids, err := j.pool.runStreams(changes, func(_ int, id core.StreamID, cs graph.ChangeSet) error {
		s, ok := j.streams[id]
		if !ok {
			return fmt.Errorf("join: unknown stream %d", id)
		}
		err := s.store.Apply(cs)
		queued, changed := s.reconcile(s.verdict)
		if changed && !j.indexed {
			queued = allQ
		}
		s.tasks = s.tasks[:0]
		for _, qid := range queued {
			s.tasks = append(s.tasks, pairTask{q: j.queries[qid]})
		}
		s.probe(s.tasks)
		return err
	})
	for _, id := range ids {
		if s, ok := j.streams[id]; ok {
			j.settleAll(s)
		}
	}
	return err
}

// Candidates implements core.Filter: a copy of the answer the verdict
// writes keep patched.
func (j *vecJoin) Candidates() []core.Pair {
	if len(j.answer) == 0 {
		return nil
	}
	return slices.Clone(j.answer)
}

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
		locked(func() float64 { return float64(j.scans) }))
	r.GaugeFunc("nntstream_filter_nnt_nodes",
		"NNT nodes the stream vectors project, summed over all streams.",
		locked(func() float64 { return j.sumStreams((*npv.Store).Nodes) }))
	if j.indexed {
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
