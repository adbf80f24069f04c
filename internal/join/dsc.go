package join

import (
	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/npv"
	"nntstream/internal/qindex"
)

// DSC is the dominated-set-cover join (Figure 8). Every query vertex's
// vector is projected onto its nonzero dimensions and kept sorted per
// dimension. Every stream vertex carries a position counter per dimension
// (how many query entries it is ≥ in that dimension) and a dominant counter
// per query vertex (in how many of the query vertex's nonzero dimensions
// the stream vertex dominates it), and fully dominates the query vertex when
// that counter reaches the query vertex's nonzero-dimension count. The pair
// (G,Q) is a candidate when G's vertices fully dominate every vertex of Q
// (Theorem 4.1). When a vertex's NPV moves in a dimension, only the
// sorted entries between its old and new position are touched — the
// paper's key efficiency argument for stream settings.
//
// The sorted columns are the query dominance index's (qindex.Index), and
// Figure 8's position counters are its rows: a vertex's position in
// dimension d is the number of d's rows with count ≤ its count there, so
// the rows between its old and new position are exactly the rows its seal
// transition crosses in d (qindex.Index.Ranges), and no position is stored.
// Query vertices with equal vectors share one entry, so the dominant
// counters are kept per entry (ref), and a pair's verdict can move only
// when the cover of one of its entries — the number of stream vertices
// fully dominating it — reaches or leaves zero.
//
// DSC's strategy half is its derive function (every query vertex's vector
// decides the verdict) and dscStream; registration, removal and the batch
// driver are vecJoin's. It is the paper's plain Figure 8, kept as the
// baseline of Figs. 14–17; serve's production join is Skyline (DESIGN §7
// has the measurement).
type DSC struct{ vecJoin }

var (
	_ core.Filter           = (*DSC)(nil)
	_ core.BatchApplier     = (*DSC)(nil)
	_ core.ParallelFilter   = (*DSC)(nil)
	_ core.MetricsFilter    = (*DSC)(nil)
	_ core.CandidateCounter = (*DSC)(nil)
)

// NewDSC returns a dominated-set-cover filter with the given NNT depth.
func NewDSC(depth int) *DSC {
	return &DSC{newVecJoin(depth, qindex.New(), npv.ProjectPacked, func(ix *qindex.Index, store *npv.Store) vecStream {
		return &dscStream{ix: ix, store: store, dom: make(map[uint64]int32), cover: make([]int32, ix.Refs())}
	})}
}

// Name implements core.Filter.
func (f *DSC) Name() string { return "NPV-DSC" }

// dscStream is DSC's vecStream: the dominant counters and the cover of
// every entry, kept straight off the seal transitions.
type dscStream struct {
	ix    *qindex.Index
	store *npv.Store
	// dom[domKey(v, ref)]: in how many of entry ref's support dimensions
	// v's sealed vector reaches the entry's count (absent: none).
	dom map[uint64]int32
	// cover[ref]: how many stream vertices fully dominate entry ref.
	cover []int32
	// The crossing walk's ranges and the pairs it queues.
	ranges []qindex.Range
	queue  qindex.Scratch
}

// domKey is the dom key of vertex v's counter for entry ref.
func domKey(v graph.VertexID, ref int32) uint64 { return uint64(uint32(v))<<32 | uint64(uint32(ref)) }

// reconcile implements vecStream: every row a seal transition crosses moves
// the vertex's dominant counter for the row's entry, up on a rise and down
// on a drop. Once the stream has decided pairs, an entry whose cover
// reaches zero queues its joinable owners and one whose cover leaves zero
// its refuted ones; presence changes queue the owners of the empty vector.
func (ds *dscStream) reconcile(verdict []bool) ([]core.QueryID, bool) {
	return ds.fold(ds.store.SealDirty(), verdict)
}

// fold is reconcile past the seal: it walks the deltas' crossed rows.
func (ds *dscStream) fold(deltas []npv.DirtyDelta, verdict []bool) ([]core.QueryID, bool) {
	if len(deltas) == 0 {
		return nil, false
	}
	ds.ix.Begin(&ds.queue)
	presence := false
	for _, dl := range deltas {
		var moved bool
		ds.ranges, moved = ds.ix.Ranges(dl, ds.ranges[:0])
		presence = presence || moved
		for _, rg := range ds.ranges {
			for _, ref := range rg.Refs {
				ds.cross(domKey(dl.Vertex, ref), ref, rg.Drop, verdict)
			}
		}
	}
	if verdict == nil {
		return nil, true
	}
	return ds.ix.Finish(&ds.queue, presence), true
}

// cross moves the dominant counter k of entry ref across one crossed row,
// keeping the entry's cover. A cover leaving zero can flip only refuted
// owners and one reaching it only joinable ones, so just those are queued.
func (ds *dscStream) cross(k uint64, ref int32, drop bool, verdict []bool) {
	e := ds.ix.Entry(ref)
	n, full := ds.dom[k], int32(e.Vec.Len())
	if drop {
		if n == full {
			if ds.cover[ref]--; ds.cover[ref] == 0 {
				ds.collect(e, verdict, true)
			}
		}
		if n == 1 {
			delete(ds.dom, k)
		} else {
			ds.dom[k] = n - 1
		}
		return
	}
	if ds.dom[k] = n + 1; n+1 == full {
		if ds.cover[ref]++; ds.cover[ref] == 1 {
			ds.collect(e, verdict, false)
		}
	}
}

// collect queues the owners of e whose verdict is joinable; a nil verdict
// (no pair decided yet) queues nothing.
func (ds *dscStream) collect(e *qindex.Entry, verdict []bool, joinable bool) {
	if verdict == nil {
		return
	}
	for _, o := range e.Owners {
		if verdict[o.Slot] == joinable {
			ds.queue.Collect(o.Slot)
		}
	}
}

// probe implements vecStream: joinable iff every entry of the query is
// covered. The empty vector has no rows, and any present vertex dominates
// it.
func (ds *dscStream) probe(ts []pairTask) {
	for i := range ts {
		t := &ts[i]
		t.ok = true
		for j, ref := range t.q.refs {
			if ds.cover[ref] == 0 && (t.q.vecs[j].Len() > 0 || ds.store.Len() == 0) {
				t.ok = false
				break
			}
		}
	}
}

// fresh implements vecStream: ref's counters are rebuilt from the sealed
// vectors while its entry has owners, and dropped once it has none.
func (ds *dscStream) fresh(ref int32) {
	for int(ref) >= len(ds.cover) {
		ds.cover = append(ds.cover, 0)
	}
	ds.cover[ref] = 0
	e := ds.ix.Entry(ref)
	ds.store.PackedVectors(func(v graph.VertexID, p npv.PackedVector) bool {
		n := int32(0)
		for i := 0; i < e.Vec.Len() && len(e.Owners) > 0; i++ {
			n += int32(b2i(p.Get(e.Vec.Dim(i)) >= e.Vec.Count(i)))
		}
		if k := domKey(v, ref); n == 0 {
			delete(ds.dom, k)
		} else {
			ds.dom[k] = n
			ds.cover[ref] += int32(b2i(n == int32(e.Vec.Len())))
		}
		return true
	})
}

// settle and forget are no-ops: the counters are all DSC keeps, and they
// follow the seals, not the verdicts.
func (*dscStream) settle([]pairTask) {}
func (*dscStream) forget(int32)      {}
