package join

import (
	"fmt"
	"slices"
	"sort"

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
// row ranges are exactly the index's rows between two upper bounds, so the
// query dominance index is DSC's column store rather than a separate
// candidate stage (the counters already make evaluation incremental in the
// dirty set). Query vertices with equal vectors share one entry, so the
// counters are kept per entry (ref), and an entry's cover reaching or
// leaving zero moves the covered count of every owner.
//
// DSC is the paper's plain Figure 8, kept as the baseline of Figs. 14–17;
// serve's production join is Skyline (DESIGN §7 has the measurement).
type DSC struct {
	depth int
	// ix holds, per dimension, the query-vector rows sorted by count.
	ix *qindex.Index
	// refs keeps, per query, the entry of each query vertex that must be
	// covered: those with empty vectors (no edges) are trivially dominated.
	refs    map[core.QueryID][]int32
	streams map[core.StreamID]*dscStream
	pool    evalPool
}

type dscStream struct {
	store *npv.Store
	// pos[v][d]: number of rows of column d with count ≤ v's count in d.
	pos map[graph.VertexID]map[npv.Dim]int
	// dom[v][ref]: in how many of entry ref's dimensions v dominates it.
	dom map[graph.VertexID]map[int32]int
	// cover[ref]: how many stream vertices fully dominate entry ref.
	cover map[int32]int
	// covered[q]: how many of q's query vertices own an entry with cover > 0.
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
		refs:    make(map[core.QueryID][]int32),
		streams: make(map[core.StreamID]*dscStream),
	}
}

// Name implements core.Filter.
func (f *DSC) Name() string { return "NPV-DSC" }

// SetWorkers implements core.ParallelFilter.
func (f *DSC) SetWorkers(n int) { f.pool.setWorkers(n) }

// AddQuery implements core.Filter; queries may also arrive while streams
// are live (core.DynamicFilter). A query vertex's vector new to the index
// gets rows in its sorted columns and every live stream's counters gain the
// entry; the query vertex then counts as covered where its entry is.
func (f *DSC) AddQuery(id core.QueryID, q *graph.Graph) error {
	if _, ok := f.refs[id]; ok {
		return fmt.Errorf("join: duplicate query %d", id)
	}
	var refs []int32
	for i, vec := range npv.ProjectPacked(q, f.depth) {
		if vec.Len() == 0 {
			continue // trivially dominated (isolated query vertex)
		}
		ref, fresh := f.ix.Add(qindex.Key{Query: id, Vertex: graph.VertexID(i)}, vec)
		refs = append(refs, ref)
		for _, ds := range f.streams {
			if fresh {
				attachEntry(ds, ref, vec)
			}
			if ds.cover[ref] > 0 {
				ds.covered[id]++
			}
		}
	}
	f.refs[id] = refs
	return nil
}

// attachEntry registers a live-added entry with one stream: every stream
// vertex's position counters gain the new rows they are ≥ of, and its
// dominant and cover counters for the new entry are derived directly.
func attachEntry(ds *dscStream, ref int32, vec npv.PackedVector) {
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
				dom = make(map[int32]int)
				ds.dom[v] = dom
			}
			dom[ref] = cnt
			if cnt == vec.Len() {
				ds.cover[ref]++
			}
		}
		return true
	})
}

// RemoveQuery implements core.DynamicFilter: the query's owners leave the
// index, the entries it alone owned take their rows with them — stream
// position counters are rolled back and their counters dropped — and its
// cover state is dropped wholesale.
func (f *DSC) RemoveQuery(id core.QueryID) error {
	refs, ok := f.refs[id]
	if !ok {
		return fmt.Errorf("join: unknown query %d", id)
	}
	f.ix.RemoveQuery(id)
	for i, ref := range refs {
		e := f.ix.Entry(ref)
		if len(e.Owners) > 0 || slices.Contains(refs[:i], ref) {
			continue // still owned, or already released
		}
		for _, ds := range f.streams {
			for qi := 0; qi < e.Vec.Len(); qi++ {
				rollbackPositions(ds, e.Vec.Dim(qi), e.Vec.Count(qi))
			}
			for v, dom := range ds.dom {
				if _, ok := dom[ref]; ok {
					delete(dom, ref)
					if len(dom) == 0 {
						delete(ds.dom, v)
					}
				}
			}
			delete(ds.cover, ref)
		}
	}
	for _, ds := range f.streams {
		delete(ds.covered, id)
	}
	delete(f.refs, id)
	return nil
}

// rollbackPositions decrements the position counter of every stream vertex
// that counted a removed row of count c in dimension d.
func rollbackPositions(ds *dscStream, d npv.Dim, c int32) {
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
		dom:     make(map[graph.VertexID]map[int32]int),
		cover:   make(map[int32]int),
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
// query) verdict is an aggregate (covered == len(refs)) the stream's own
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
// exactly the rows crossed in each dimension: every dimension with a
// nonzero old position, then every other one of vec's support that queries
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
	counts, refs := f.ix.Column(d)
	oldPos := pos[d]
	newPos := sort.Search(len(counts), func(i int) bool { return counts[i] > c })
	switch {
	case newPos > oldPos:
		for _, ref := range refs[oldPos:newPos] {
			f.incDom(ds, v, ref)
		}
	case newPos < oldPos:
		for _, ref := range refs[newPos:oldPos] {
			f.decDom(ds, v, ref)
		}
	}
	if newPos == 0 {
		delete(pos, d)
	} else {
		pos[d] = newPos
	}
}

func (f *DSC) incDom(ds *dscStream, v graph.VertexID, ref int32) {
	dom := ds.dom[v]
	if dom == nil {
		dom = make(map[int32]int)
		ds.dom[v] = dom
	}
	dom[ref]++
	if e := f.ix.Entry(ref); dom[ref] == e.Vec.Len() {
		ds.cover[ref]++
		if ds.cover[ref] == 1 {
			f.coverOwners(ds, e, 1)
		}
	}
}

func (f *DSC) decDom(ds *dscStream, v graph.VertexID, ref int32) {
	dom := ds.dom[v]
	if e := f.ix.Entry(ref); dom[ref] == e.Vec.Len() {
		ds.cover[ref]--
		if ds.cover[ref] == 0 {
			delete(ds.cover, ref)
			f.coverOwners(ds, e, -1)
		}
	}
	dom[ref]--
	if dom[ref] == 0 {
		delete(dom, ref)
	} else if dom[ref] < 0 {
		panic(fmt.Sprintf("join: DSC dominant counter of entry %d went negative", ref))
	}
}

// coverOwners moves the covered count of every query owning e by delta,
// as e's cover reaches (+1) or leaves (-1) zero.
func (f *DSC) coverOwners(ds *dscStream, e *qindex.Entry, delta int) {
	for _, o := range e.Owners {
		q := f.ix.Query(o.Slot)
		if ds.covered[q] += delta; ds.covered[q] == 0 {
			delete(ds.covered, q)
		}
	}
}

// Candidates implements core.Filter.
func (f *DSC) Candidates() []core.Pair {
	var out []core.Pair
	for sid, ds := range f.streams {
		for qid, refs := range f.refs {
			if ds.covered[qid] == len(refs) {
				out = append(out, core.Pair{Stream: sid, Query: qid})
			}
		}
	}
	return core.SortPairs(out)
}
