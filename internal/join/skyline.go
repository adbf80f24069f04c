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
// transitions — the store's packed cache is the only copy of a vector.
type skyStream struct {
	store *npv.Store
	dims  map[npv.Dim]*dimStat
}

// dimStat is one dimension's statistics: the vertices whose sealed vector is
// nonzero in it, and an upper bound on their counts. max rises when a member
// registers a larger count and is never lowered when one shrinks or leaves;
// it resets only with the member set (the dimension is dropped when it
// empties). So u[d] > max still proves no member reaches u, while the
// member scan after it decides exactly — and a removal costs no rescan.
type dimStat struct {
	members map[graph.VertexID]struct{}
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
		return &skyStream{store: store, dims: make(map[npv.Dim]*dimStat)}
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

// reconcile implements vecStream: each dirty vertex leaves the member sets
// of the dimensions its old sealed vector had and its new one lacks, and
// joins those of its new one, raising their max. A vertex that appeared has
// an empty Old and a retired one an empty New, so both fall out of the same
// walk.
func (ss *skyStream) reconcile() []npv.DirtyDelta {
	deltas := ss.store.SealDirty()
	for _, dl := range deltas {
		v, old, cur := dl.Vertex, dl.Old, dl.New
		j := 0
		for i := 0; i < old.Len(); i++ {
			d := old.Dim(i)
			for j < cur.Len() && cur.Dim(j) < d {
				j++
			}
			if j < cur.Len() && cur.Dim(j) == d {
				continue // still a member
			}
			stat := ss.dims[d]
			delete(stat.members, v)
			if len(stat.members) == 0 {
				delete(ss.dims, d)
			}
		}
		for i := 0; i < cur.Len(); i++ {
			d := cur.Dim(i)
			stat := ss.dims[d]
			if stat == nil {
				stat = &dimStat{members: make(map[graph.VertexID]struct{})}
				ss.dims[d] = stat
			}
			stat.members[v] = struct{}{}
			stat.max = max(stat.max, cur.Count(i))
		}
	}
	return deltas
}

// probe implements vecStream.
func (ss *skyStream) probe(maximal []npv.PackedVector) (bool, int64) { return evalMaximal(ss, maximal) }

// evalMaximal reports joinability — true iff every maximal query vector is
// dominated by some stream vector. It reads the reconciled per-dimension
// statistics and the query's maximal vectors, and touches no filter state,
// which is what makes the fan-out safe.
//
//nnt:hotpath
func evalMaximal(ss *skyStream, maximal []npv.PackedVector) (bool, int64) {
	var total int64
	for _, u := range maximal {
		ok, scanned := dominated(ss, u)
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
func dominated(ss *skyStream, u npv.PackedVector) (bool, int64) {
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
	// is a member of the probe (minimum-cardinality) dimension. Members are
	// exactly the vertices whose vectors the same reconcile step sealed
	// nonzero there — Packed never misses here.
	var scanned int64
	for v := range probe.members {
		scanned++
		//lint:ignore hotalloc Packed's Pack() fallback only runs for dirty or cache-disabled vectors; the probe reads a space sealed by the same reconcile step, so it hits the packed cache allocation-free
		if p, ok := ss.store.Packed(v); ok && p.Dominates(u) {
			return true, scanned
		}
	}
	return false, scanned
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
