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
// query live in a qindex.Index, so a changed stream re-evaluates only the
// queries whose verdict the dirty vertices' seal transitions could have
// flipped, instead of all of them (NL's full re-evaluation is the
// reference). And a re-evaluation starts from the pair's witness memo: the
// vector that refuted the pair last is tested first, and a vector whose
// last dominator has not been resealed since is dominated without a test.
//
// Skyline is the production join: cmd/serve runs it unless told otherwise.
type Skyline struct{ vecJoin }

// skyStream is Skyline's vecStream: the per-dimension statistics behind the
// max refutation and the probe-dimension choice, kept straight off the seal
// transitions. A vertex's record holds its sealed packed vector, sharing the
// slices of the store's packed cache rather than copying them.
type skyStream struct {
	store *npv.Store
	dims  map[npv.Dim]*dimStat
	verts map[graph.VertexID]*skyVertex
	// pos is reconcile's scratch for a vertex's next member positions.
	pos []int32
	// seals counts the reconciles that sealed something; pairs holds each
	// registered query's pair memo, by query slot.
	seals uint64
	pairs []pairMemo
}

// skyVertex is one vertex with a nonempty sealed vector p: pos runs parallel
// to p's support, pos[i] being the vertex's index in the members of
// dimension p.Dim(i), so leaving a dimension is an O(1) swap-remove. seal is
// the stream's seal count when reconcile last wrote p; a retired vertex's
// record keeps its final, empty p.
type skyVertex struct {
	p    npv.PackedVector
	pos  []int32
	seal uint64
}

// pairMemo is what deciding one (stream, query) pair left behind: the index
// of the maximal vector that refuted it, and per maximal vector the stream
// vertex that dominated it when last checked.
type pairMemo struct {
	refute int32
	wit    []witness
}

// witness is a vertex that dominated a query vector at seal count at. While
// the vertex's seal is at most at, its sealed vector is the one checked, so
// it still dominates the (static) query vector.
type witness struct {
	sv *skyVertex
	at uint64
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
	return &Skyline{newVecJoin(depth, qindex.New(), maximalByMass, func(store *npv.Store) vecStream {
		return &skyStream{store: store, dims: make(map[npv.Dim]*dimStat), verts: make(map[graph.VertexID]*skyVertex)}
	})}
}

// Name implements core.Filter.
func (f *Skyline) Name() string { return "NPV-Skyline" }

// maximalByMass derives the vectors that decide a Skyline verdict: only the
// maximal ones (so only they are indexed), heaviest first —
// those are the least likely to be dominated, so a non-joinable pair is
// refuted early.
func maximalByMass(q *graph.Graph, depth int) []npv.PackedVector {
	maximal := skyline.MaximalPacked(packQuery(q, depth))
	sort.Slice(maximal, func(i, j int) bool { return maximal[i].L1() > maximal[j].L1() })
	return maximal
}

// reconcile implements vecStream: each dirty vertex leaves the member lists
// of the dimensions its old sealed vector had and its new one lacks, keeps
// its place in those both have, and joins those only its new one has,
// raising their max. A vertex that appeared has an empty Old and a retired
// one an empty New, so all three fall out of the same merge walk. Every
// record written is stamped with the stream's new seal count.
func (ss *skyStream) reconcile() []npv.DirtyDelta {
	deltas := ss.store.SealDirty()
	if len(deltas) > 0 {
		ss.seals++
	}
	for _, dl := range deltas {
		sv, cur := ss.verts[dl.Vertex], dl.New
		if sv == nil {
			if cur.Len() == 0 {
				continue
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
		sv.seal = ss.seals
		if cur.Len() == 0 {
			delete(ss.verts, dl.Vertex)
		}
	}
	return deltas
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
		ss.pairs[slot].wit = make([]witness, n)
	}
}

// probe implements vecStream.
func (ss *skyStream) probe(q *vecQuery, t *npv.Tally) (bool, int64) {
	return evalMaximal(ss, q.vecs, &ss.pairs[q.slot], t)
}

// evalMaximal reports joinability — true iff every maximal query vector is
// dominated by some stream vector — starting from the vector that refuted
// the pair last and going on in rotation. It reads the reconciled
// per-dimension statistics and the query's maximal vectors, and writes only
// the pair's memo m, which is what makes the fan-out safe.
//
//nnt:hotpath
func evalMaximal(ss *skyStream, maximal []npv.PackedVector, m *pairMemo, t *npv.Tally) (bool, int64) {
	var total int64
	for k := range maximal {
		i := (int(m.refute) + k) % len(maximal)
		ok, scanned := ss.witnessed(&m.wit[i], maximal[i], t)
		total += scanned
		if !ok {
			// maximal[i] is a bichromatic skyline point of the query vectors
			// with respect to the stream vectors: early stop, prune the pair,
			// and test this vector first next time.
			m.refute = int32(i)
			return false, total
		}
	}
	return true, total
}

// witnessed decides one maximal vector u from its witness w: a witness not
// resealed since it was checked still dominates u and costs no test, a
// resealed one costs one kernel call, and otherwise the full probe runs and
// w records the dominator it finds (nil when u is refuted).
//
//nnt:hotpath
func (ss *skyStream) witnessed(w *witness, u npv.PackedVector, t *npv.Tally) (bool, int64) {
	if w.sv != nil {
		if w.sv.seal <= w.at {
			return true, 0
		}
		if t.Dominates(w.sv.p, u) {
			w.at = ss.seals
			return true, 1
		}
	}
	sv, ok, scanned := dominator(ss, u, t)
	w.sv, w.at = sv, ss.seals
	return ok, scanned
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
