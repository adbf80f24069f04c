package join

import (
	"sort"

	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/npv"
	"nntstream/internal/obs"
	"nntstream/internal/qindex"
	"nntstream/internal/skyline"
)

// Skyline is the skyline-with-early-stop join (Figure 11). It searches for
// a witness that a pair is NOT joinable: a query vector that no stream
// vector dominates (a bichromatic skyline point of the query set with
// respect to the stream set). Three optimizations from the paper:
//
//  1. Query side: only the maximal (monochromatic skyline) query vectors
//     are checked — if any query vector is undominated, a maximal one is.
//  2. Query side: maximal vectors are probed in an order that favors early
//     stops (descending L1 mass: heavier vectors are harder to dominate).
//  3. Stream side: per-dimension max bounds give an O(|support|) refutation
//     ("no stream vector is large enough in dimension d"), and otherwise
//     only the vectors of the query vector's lowest-cardinality nonzero
//     dimension are scanned, since any dominator must appear there.
//
// Two more optimizations are ours. The maximal vectors of every registered
// query live in a qindex.Index, and each dirty vertex's seal transition is
// walked over it (qindex.Index.Cross), which names every query vector the
// vertex stopped or started dominating. The walk keeps a witness memo per
// (stream, query) pair, and a pair is re-evaluated only when the memo says
// its verdict can move: a joinable pair lost the witness of one of its
// vectors, or a refuted pair's refuting vector gained a dominator. A
// re-evaluation scans only the vectors without a witness. (NL's full
// re-evaluation is the reference.)
//
// Skyline is the production join: cmd/serve runs it unless told otherwise.
type Skyline struct{ vecJoin }

// skyStream is Skyline's vecStream: the per-dimension statistics behind the
// max refutation and the probe-dimension choice, kept straight off the seal
// transitions. A vertex's record holds its sealed packed vector, sharing the
// store's sealed slices (never written again) rather than copying them.
type skyStream struct {
	ix    *qindex.Index
	store *npv.Store
	dims  map[npv.Dim]*dimStat
	verts map[graph.VertexID]*skyVertex
	// pos is reconcile's scratch for a vertex's next member positions.
	pos []int32
	// pairs holds each registered query's pair memo, by query slot.
	pairs []pairMemo
	// The crossing walk's state: the verdicts it reads, the record of the
	// vertex being walked, the pairs it queues, and its kernel calls.
	verdict []bool
	cur     *skyVertex
	queue   qindex.Scratch
	tally   npv.Tally
}

// skyVertex is one vertex with a nonempty sealed vector p: pos runs parallel
// to p's support, pos[i] being the vertex's index in the members of
// dimension p.Dim(i), so leaving a dimension is an O(1) swap-remove.
type skyVertex struct {
	p   npv.PackedVector
	pos []int32
}

// pairMemo is what deciding one (stream, query) pair left behind: per
// maximal vector a witness, the record of a vertex that dominates it, and
// the index of the vector that refuted the pair last. Between steps it
// keeps two invariants:
//   - a non-nil witness is a live record whose sealed vector dominates its
//     query vector;
//   - when the pair is not joinable, its refuting vector has no witness and
//     no live vertex dominates it.
type pairMemo struct {
	refute int32
	wit    []*skyVertex
}

// dimStat is one dimension's statistics: the vertices whose sealed vector is
// nonzero in it, and an upper bound on their counts. max rises when a member
// registers a larger count and is never lowered when one shrinks or leaves;
// it resets only with the member set (the dimension is dropped when it
// empties). So u[d] > max still proves no member reaches u, while the
// member scan after it decides exactly — and a removal costs no rescan.
type dimStat struct {
	members []*skyVertex
	max     int32
}

var (
	_ core.DynamicFilter  = (*Skyline)(nil)
	_ core.BatchApplier   = (*Skyline)(nil)
	_ core.ParallelFilter = (*Skyline)(nil)
	_ core.MetricsFilter  = (*Skyline)(nil)
)

// NewSkyline returns a skyline-with-early-stop filter with the given NNT
// depth.
func NewSkyline(depth int) *Skyline {
	return &Skyline{newVecJoin(depth, true, maximalByMass, func(ix *qindex.Index, store *npv.Store) vecStream {
		return &skyStream{ix: ix, store: store, dims: make(map[npv.Dim]*dimStat), verts: make(map[graph.VertexID]*skyVertex)}
	})}
}

// Name implements core.Filter.
func (f *Skyline) Name() string { return "NPV-Skyline" }

// maximalByMass derives the vectors that decide a Skyline verdict: only the
// maximal ones (so only they are indexed), heaviest first —
// those are the least likely to be dominated, so a non-joinable pair is
// refuted early.
func maximalByMass(q *graph.Graph, depth int) []npv.PackedVector {
	maximal := skyline.MaximalPacked(npv.ProjectPacked(q, depth))
	sort.Slice(maximal, func(i, j int) bool { return maximal[i].L1() > maximal[j].L1() })
	return maximal
}

// reconcile implements vecStream: it folds every seal transition into the
// statistics and, once the stream has decided pairs, walks it over the
// index, letting Cross keep the pair memos and queue the pairs whose
// verdict can move. Presence changes queue the queries with an empty
// vector, which only they can flip.
func (ss *skyStream) reconcile(verdict []bool) ([]core.QueryID, bool) {
	deltas := ss.store.SealDirty()
	if len(deltas) == 0 {
		return nil, false
	}
	if verdict == nil {
		for _, dl := range deltas {
			ss.fold(dl)
		}
		return nil, true
	}
	ss.verdict = verdict
	ss.ix.Begin(&ss.queue)
	presence := false
	for _, dl := range deltas {
		ss.cur = ss.fold(dl)
		presence = ss.ix.Cross(dl, ss) || presence
	}
	ss.verdict, ss.cur = nil, nil
	ss.tally.Flush()
	return ss.ix.Finish(&ss.queue, presence), true
}

// fold moves a dirty vertex's record to its new sealed vector and returns
// it (nil when the vertex has no vector on either side): the vertex leaves
// the member lists of the dimensions its old vector had and its new one
// lacks, keeps its place in those both have, and joins those only its new
// one has, raising their max. A vertex that appeared has an empty Old and a
// retired one an empty New, so all three fall out of the same merge walk;
// a retired vertex's record keeps its final, empty p.
func (ss *skyStream) fold(dl npv.DirtyDelta) *skyVertex {
	sv, cur := ss.verts[dl.Vertex], dl.New
	if sv == nil {
		if cur.Len() == 0 {
			return nil
		}
		sv = &skyVertex{}
		ss.verts[dl.Vertex] = sv
	}
	old, pos := sv.p, ss.pos[:0]
	i, j := 0, 0
	for i < old.Len() || j < cur.Len() {
		switch {
		case j == cur.Len() || (i < old.Len() && old.Dim(i) < cur.Dim(j)):
			ss.leave(old.Dim(i), sv.pos[i])
			i++
		case i == old.Len() || cur.Dim(j) < old.Dim(i):
			stat := ss.dims[cur.Dim(j)]
			if stat == nil {
				stat = &dimStat{}
				ss.dims[cur.Dim(j)] = stat
			}
			pos = append(pos, int32(len(stat.members)))
			stat.members = append(stat.members, sv)
			stat.max = max(stat.max, cur.Count(j))
			j++
		default:
			stat := ss.dims[cur.Dim(j)]
			pos = append(pos, sv.pos[i])
			stat.max = max(stat.max, cur.Count(j))
			i++
			j++
		}
	}
	sv.p, sv.pos, ss.pos = cur, append(sv.pos[:0], pos...), pos
	if cur.Len() == 0 {
		delete(ss.verts, dl.Vertex)
	}
	return sv
}

// Cross implements qindex.Visitor for ss.cur, the vertex reconcile is
// walking, and keeps pairMemo's invariants. A drop means the vertex's new
// vector no longer dominates the posting's, so a witness held by the vertex
// is cleared without a kernel call, and the pair is queued if it was
// joinable. A rise can only add dominance, and only a refuted pair's
// refuting vector gaining a dominator can flip that pair: one kernel call
// decides, and a dominating vertex becomes the vector's witness and queues
// the pair.
//
//nnt:hotpath
func (ss *skyStream) Cross(e *qindex.Posting, drop bool) {
	if !drop && ss.verdict[e.Slot] {
		return
	}
	m := &ss.pairs[e.Slot]
	w := &m.wit[e.Key.Vertex]
	switch {
	case drop:
		if *w == ss.cur {
			*w = nil
			if ss.verdict[e.Slot] {
				ss.queue.Collect(e.Slot)
			}
		}
	case *w == nil && int32(e.Key.Vertex) == m.refute && ss.tally.Dominates(ss.cur.p, e.Vec):
		*w = ss.cur
		ss.queue.Collect(e.Slot)
	}
}

// leave swap-removes the member at index at of dimension d, repointing the
// member moved into its place, and drops the dimension when it empties.
func (ss *skyStream) leave(d npv.Dim, at int32) {
	stat := ss.dims[d]
	last := len(stat.members) - 1
	if moved := stat.members[last]; int(at) != last {
		stat.members[at] = moved
		k, _ := moved.p.Find(d)
		moved.pos[k] = at
	}
	stat.members[last] = nil
	stat.members = stat.members[:last]
	if last == 0 {
		delete(ss.dims, d)
	}
}

// memo implements vecStream.
func (ss *skyStream) memo(slot int32, n int) {
	if int(slot) >= len(ss.pairs) {
		ss.pairs = append(ss.pairs, make([]pairMemo, int(slot)+1-len(ss.pairs))...)
	}
	ss.pairs[slot] = pairMemo{}
	if n > 0 {
		ss.pairs[slot].wit = make([]*skyVertex, n)
	}
}

// probe implements vecStream.
func (ss *skyStream) probe(q *vecQuery, t *npv.Tally) (bool, int64) {
	return evalMaximal(ss, q.vecs, &ss.pairs[q.slot], t)
}

// evalMaximal reports joinability — true iff every maximal query vector is
// dominated by some stream vector. A vector with a witness is dominated
// without a test; the others are probed in order, each recording the
// dominator found, and the first one refuted stops the scan. It reads the
// reconciled per-dimension statistics and the query's maximal vectors, and
// writes only the pair's memo m, which is what makes the fan-out safe.
//
//nnt:hotpath
func evalMaximal(ss *skyStream, maximal []npv.PackedVector, m *pairMemo, t *npv.Tally) (bool, int64) {
	var total int64
	for i, u := range maximal {
		if m.wit[i] != nil {
			continue
		}
		sv, ok, scanned := dominator(ss, u, t)
		total += scanned
		if !ok {
			// u is a bichromatic skyline point of the query vectors with
			// respect to the stream vectors: early stop, prune the pair.
			m.refute = int32(i)
			return false, total
		}
		m.wit[i] = sv
	}
	return true, total
}

// dominator implements the stream-side probe for one query vector: whether
// some stream vector dominates u, the record of the one found (nil for an
// empty u, which any vertex dominates), and the number of stream vectors
// scanned in the probe loop.
//
//nnt:hotpath
func dominator(ss *skyStream, u npv.PackedVector, t *npv.Tally) (*skyVertex, bool, int64) {
	if u.Len() == 0 {
		return nil, ss.store.Len() > 0, 0
	}
	var probe *dimStat
	for i := 0; i < u.Len(); i++ {
		stat := ss.dims[u.Dim(i)]
		if stat == nil || u.Count(i) > stat.max {
			// No stream vector reaches u in dimension d (max bounds them
			// all): u is a skyline point, refuted in O(|support|).
			return nil, false, 0
		}
		if probe == nil || len(stat.members) < len(probe.members) {
			probe = stat
		}
	}
	// Any dominator of u is nonzero in every support dimension of u, so it
	// is a member of the probe (minimum-cardinality) dimension, whose records
	// hold the vectors the same reconcile step sealed.
	for k, sv := range probe.members {
		if t.Dominates(sv.p, u) {
			return sv, true, int64(k + 1)
		}
	}
	return nil, false, int64(len(probe.members))
}

// RegisterMetrics implements core.MetricsFilter: the shared vector-join
// series plus the per-dimension statistics the skyline probe keeps.
func (f *Skyline) RegisterMetrics(r *obs.Registry, locked func(func() float64) func() float64) {
	f.vecJoin.RegisterMetrics(r, locked)
	r.GaugeFunc("nntstream_skyline_dimensions",
		"Per-dimension statistics kept, summed over all streams.",
		locked(func() float64 {
			dims := 0
			for _, s := range f.streams {
				dims += len(s.vecStream.(*skyStream).dims)
			}
			return float64(dims)
		}))
}
