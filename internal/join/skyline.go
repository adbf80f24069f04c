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
// A fourth optimization is ours: the maximal vectors of every registered
// query live in a qindex.Index, so a changed stream re-evaluates only the
// queries whose verdict the dirty vertices' seal transitions could have
// flipped, instead of all of them (NL's full re-evaluation is the
// reference).
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
}

// skyVertex is one vertex with a nonempty sealed vector p: pos runs parallel
// to p's support, pos[i] being the vertex's index in the members of
// dimension p.Dim(i), so leaving a dimension is an O(1) swap-remove.
type skyVertex struct {
	p   npv.PackedVector
	pos []int32
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
// one an empty New, so all three fall out of the same merge walk.
func (ss *skyStream) reconcile() []npv.DirtyDelta {
	deltas := ss.store.SealDirty()
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

// probe implements vecStream.
func (ss *skyStream) probe(maximal []npv.PackedVector, t *npv.Tally) (bool, int64) {
	return evalMaximal(ss, maximal, t)
}

// evalMaximal reports joinability — true iff every maximal query vector is
// dominated by some stream vector. It reads the reconciled per-dimension
// statistics and the query's maximal vectors, and touches no filter state,
// which is what makes the fan-out safe.
//
//nnt:hotpath
func evalMaximal(ss *skyStream, maximal []npv.PackedVector, t *npv.Tally) (bool, int64) {
	var total int64
	for _, u := range maximal {
		ok, scanned := dominated(ss, u, t)
		total += scanned
		if !ok {
			// u is a bichromatic skyline point of the query vectors with
			// respect to the stream vectors: early stop, prune the pair.
			return false, total
		}
	}
	return true, total
}

// dominated implements the stream-side probe for one query vector,
// reporting the number of stream vectors scanned in the probe loop.
//
//nnt:hotpath
func dominated(ss *skyStream, u npv.PackedVector, t *npv.Tally) (bool, int64) {
	if u.Len() == 0 {
		// An empty query vector is dominated by any vertex.
		return ss.store.Len() > 0, 0
	}
	var probe *dimStat
	for i := 0; i < u.Len(); i++ {
		stat := ss.dims[u.Dim(i)]
		if stat == nil || u.Count(i) > stat.max {
			// No stream vector reaches u in dimension d (max bounds them
			// all): u is a skyline point, refuted in O(|support|).
			return false, 0
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
			return true, int64(k + 1)
		}
	}
	return false, int64(len(probe.members))
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
