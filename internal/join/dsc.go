package join

import (
	"fmt"

	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/npv"
	"nntstream/internal/qindex"
)

// DSC is the dominated-set-cover join (Figure 8). Query vectors are
// projected onto their nonzero dimensions and kept sorted per dimension.
// Every stream vertex carries a position counter per dimension (how many
// query entries it is ≥ in that dimension) and a dominant counter per query
// vertex it has encountered (in how many of that query vertex's nonzero
// dimensions the stream vertex dominates it). A stream vertex fully
// dominates a query vertex when its dominant counter reaches the query
// vertex's nonzero-dimension count. The pair (G,Q) is a candidate when the
// union of query vertices fully dominated by G's vertices covers Q
// (Theorem 4.1).
//
// The stream-side state is updated incrementally: when a vertex's NPV moves
// in a dimension, only the sorted entries between its old and new position
// are touched — the paper's key efficiency argument for stream settings.
//
// The sorted per-dimension columns live in a qindex.Index: DSC's crossed-
// entry ranges are exactly the index's per-dimension postings between two
// upper bounds, so the query dominance index is DSC's column store rather
// than a separate candidate stage (the counters already make evaluation
// incremental in the dirty set).
//
// DSC is the paper's plain Figure 8, kept as the baseline of Figs. 14–17;
// serve's production join is Skyline (DESIGN §7 has the measurement).
type DSC struct {
	depth int
	// ix holds, per dimension, the query-vertex postings sorted by count.
	ix *qindex.Index
	// vecs keeps each query vertex's packed vector, so dynamic removal can
	// undo its position-counter contributions and incDom/decDom know how
	// many dimensions full dominance takes (vecs[k].Len()). Query vertices
	// with empty vectors (no edges) are trivially dominated and excluded.
	vecs map[qKey]npv.PackedVector
	// qsize counts the query vertices that must be covered per query.
	qsize   map[core.QueryID]int
	streams map[core.StreamID]*dscStream
	pool    evalPool
}

type dscStream struct {
	store *npv.Store
	// pos[v][d]: number of entries of cols[d] with value ≤ v's count in d.
	pos map[graph.VertexID]map[npv.Dim]int
	// dom[v][k]: in how many of k's nonzero dimensions v dominates k.
	dom map[graph.VertexID]map[qKey]int
	// cover[k]: how many stream vertices fully dominate query vertex k.
	cover map[qKey]int
	// covered[q]: how many of q's query vertices have cover > 0.
	covered map[core.QueryID]int
}

var (
	_ core.DynamicFilter  = (*DSC)(nil)
	_ core.BatchApplier   = (*DSC)(nil)
	_ core.ParallelFilter = (*DSC)(nil)
)

// NewDSC returns a dominated-set-cover filter with the given NNT depth.
func NewDSC(depth int) *DSC {
	return &DSC{
		depth:   depth,
		ix:      qindex.New(),
		vecs:    make(map[qKey]npv.PackedVector),
		qsize:   make(map[core.QueryID]int),
		streams: make(map[core.StreamID]*dscStream),
	}
}

// Name implements core.Filter.
func (f *DSC) Name() string { return "NPV-DSC" }

// SetWorkers implements core.ParallelFilter.
func (f *DSC) SetWorkers(n int) { f.pool.setWorkers(n) }

// AddQuery implements core.Filter; queries may also arrive while streams
// are live (core.DynamicFilter). Each query vertex's entries go into their
// sorted columns — appended before the first stream seals the index,
// inserted in place after — and every live stream's counters are fixed up.
func (f *DSC) AddQuery(id core.QueryID, q *graph.Graph) error {
	if _, ok := f.qsize[id]; ok {
		return fmt.Errorf("join: duplicate query %d", id)
	}
	size := 0
	for i, vec := range npv.ProjectPacked(q, f.depth) {
		if vec.Len() == 0 {
			continue // trivially dominated (isolated query vertex)
		}
		k := qKey{Q: id, V: graph.VertexID(i)}
		size++
		f.vecs[k] = vec
		f.ix.Add(qindex.Key{Query: id, Vertex: k.V}, vec)
		for _, ds := range f.streams {
			f.attachQueryVertex(ds, k, vec)
		}
	}
	f.qsize[id] = size
	return nil
}

// attachQueryVertex registers a live-added query vertex with one stream:
// every stream vertex's position counters gain the new column entries they
// are ≥ of, and its dominant counter for the new key is derived directly.
func (f *DSC) attachQueryVertex(ds *dscStream, k qKey, vec npv.PackedVector) {
	ds.store.PackedVectors(func(v graph.VertexID, vvec npv.PackedVector) bool {
		cnt := 0
		for i := 0; i < vec.Len(); i++ {
			d, c := vec.Dim(i), vec.Count(i)
			if vvec.Get(d) >= c {
				cnt++
				pos := ds.pos[v]
				if pos == nil {
					pos = make(map[npv.Dim]int)
					ds.pos[v] = pos
				}
				pos[d]++
			}
		}
		if cnt > 0 {
			dom := ds.dom[v]
			if dom == nil {
				dom = make(map[qKey]int)
				ds.dom[v] = dom
			}
			dom[k] = cnt
			if cnt == vec.Len() {
				ds.cover[k]++
				if ds.cover[k] == 1 {
					ds.covered[k.Q]++
				}
			}
		}
		return true
	})
}

// RemoveQuery implements core.DynamicFilter: the query's column entries are
// deleted, stream position counters are rolled back, and its cover state is
// dropped wholesale.
func (f *DSC) RemoveQuery(id core.QueryID) error {
	if _, ok := f.qsize[id]; !ok {
		return fmt.Errorf("join: unknown query %d", id)
	}
	f.ix.RemoveQuery(id)
	for k, vec := range f.vecs {
		if k.Q != id {
			continue
		}
		for qi := 0; qi < vec.Len(); qi++ {
			d, c := vec.Dim(qi), vec.Count(qi)
			for _, ds := range f.streams {
				f.rollbackPositions(ds, d, c)
			}
		}
		for _, ds := range f.streams {
			for v, dom := range ds.dom {
				if _, ok := dom[k]; ok {
					delete(dom, k)
					if len(dom) == 0 {
						delete(ds.dom, v)
					}
				}
			}
			delete(ds.cover, k)
		}
		delete(f.vecs, k)
	}
	for _, ds := range f.streams {
		delete(ds.covered, id)
	}
	delete(f.qsize, id)
	return nil
}

// rollbackPositions decrements the position counter of every stream vertex
// that counted a removed column entry of value c in dimension d.
func (f *DSC) rollbackPositions(ds *dscStream, d npv.Dim, c int32) {
	ds.store.PackedVectors(func(v graph.VertexID, vvec npv.PackedVector) bool {
		if vvec.Get(d) >= c {
			pos := ds.pos[v]
			pos[d]--
			if pos[d] == 0 {
				delete(pos, d)
				if len(pos) == 0 {
					delete(ds.pos, v)
				}
			}
		}
		return true
	})
}

// AddStream implements core.Filter. The first stream seals the index, so
// the build-phase columns sort once.
func (f *DSC) AddStream(id core.StreamID, g0 *graph.Graph) error {
	if _, ok := f.streams[id]; ok {
		return fmt.Errorf("join: duplicate stream %d", id)
	}
	f.ix.Seal()
	ds := &dscStream{
		store:   npv.NewStore(g0, f.depth),
		pos:     make(map[graph.VertexID]map[npv.Dim]int),
		dom:     make(map[graph.VertexID]map[qKey]int),
		cover:   make(map[qKey]int),
		covered: make(map[core.QueryID]int),
	}
	f.streams[id] = ds
	f.reconcile(ds)
	return nil
}

// Apply implements core.Filter as a one-entry batch.
func (f *DSC) Apply(id core.StreamID, cs graph.ChangeSet) error {
	return f.ApplyAll(map[core.StreamID]graph.ChangeSet{id: cs})
}

// reconcile folds the stream's seal transitions into its counters.
func (f *DSC) reconcile(ds *dscStream) {
	for _, dl := range ds.store.SealDirty() {
		f.updateVertex(ds, dl.Vertex, dl.New)
	}
}

// ApplyAll implements core.BatchApplier, and is the only code path that
// advances a stream: one task per stream — NPV recount, then the
// dominance counter updates of the dirty vertices — because DSC's dominance
// re-evaluation *is* the per-stream counter maintenance. Every (stream,
// query) verdict is an aggregate (covered == qsize) the stream's own
// counters answer, so the stream is the finest unit that avoids write
// sharing. Tasks touch only their own stream's state (plus the read-only
// shared columns).
func (f *DSC) ApplyAll(changes map[core.StreamID]graph.ChangeSet) error {
	_, err := f.pool.runStreams(changes, func(_ int, id core.StreamID, cs graph.ChangeSet) error {
		ds, ok := f.streams[id]
		if !ok {
			return fmt.Errorf("join: unknown stream %d", id)
		}
		if err := ds.store.Apply(cs); err != nil {
			return err
		}
		f.reconcile(ds)
		return nil
	})
	return err
}

// updateVertex moves stream vertex v's position counters to match its newly
// sealed NPV vec (empty when v retired), adjusting dominant counters for
// exactly the query entries crossed in each dimension: every dimension with
// a nonzero old position, then every other one of vec's support that queries
// use.
func (f *DSC) updateVertex(ds *dscStream, v graph.VertexID, vec npv.PackedVector) {
	pos := ds.pos[v]
	for d := range pos {
		f.move(ds, v, pos, d, vec.Get(d))
	}
	for i := 0; i < vec.Len(); i++ {
		if d := vec.Dim(i); pos[d] == 0 && f.ix.HasDim(d) {
			if pos == nil {
				pos = make(map[npv.Dim]int)
				ds.pos[v] = pos
			}
			f.move(ds, v, pos, d, vec.Count(i))
		}
	}
	if len(pos) == 0 {
		delete(ds.pos, v)
	}
	if dom := ds.dom[v]; dom != nil && len(dom) == 0 {
		delete(ds.dom, v)
	}
}

// move sets v's position in dimension d's column to that of count c.
func (f *DSC) move(ds *dscStream, v graph.VertexID, pos map[npv.Dim]int, d npv.Dim, c int32) {
	col := f.ix.Postings(d)
	oldPos, newPos := pos[d], qindex.UpperBound(col, c)
	switch {
	case newPos > oldPos:
		for _, e := range col[oldPos:newPos] {
			f.incDom(ds, v, qKey{Q: e.Key.Query, V: e.Key.Vertex})
		}
	case newPos < oldPos:
		for _, e := range col[newPos:oldPos] {
			f.decDom(ds, v, qKey{Q: e.Key.Query, V: e.Key.Vertex})
		}
	}
	if newPos == 0 {
		delete(pos, d)
	} else {
		pos[d] = newPos
	}
}

func (f *DSC) incDom(ds *dscStream, v graph.VertexID, k qKey) {
	dom := ds.dom[v]
	if dom == nil {
		dom = make(map[qKey]int)
		ds.dom[v] = dom
	}
	dom[k]++
	if dom[k] == f.vecs[k].Len() {
		ds.cover[k]++
		if ds.cover[k] == 1 {
			ds.covered[k.Q]++
		}
	}
}

func (f *DSC) decDom(ds *dscStream, v graph.VertexID, k qKey) {
	dom := ds.dom[v]
	if dom[k] == f.vecs[k].Len() {
		ds.cover[k]--
		if ds.cover[k] == 0 {
			delete(ds.cover, k)
			ds.covered[k.Q]--
			if ds.covered[k.Q] == 0 {
				delete(ds.covered, k.Q)
			}
		}
	}
	dom[k]--
	if dom[k] == 0 {
		delete(dom, k)
	} else if dom[k] < 0 {
		panic(fmt.Sprintf("join: DSC dominant counter of %v went negative", k))
	}
}

// Candidates implements core.Filter.
func (f *DSC) Candidates() []core.Pair {
	var out []core.Pair
	for sid, ds := range f.streams {
		for qid, size := range f.qsize {
			if ds.covered[qid] == size {
				out = append(out, core.Pair{Stream: sid, Query: qid})
			}
		}
	}
	return core.SortPairs(out)
}
