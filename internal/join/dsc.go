package join

import (
	"fmt"
	"sort"

	"nntstream/internal/core"
	"nntstream/internal/factor"
	"nntstream/internal/graph"
	"nntstream/internal/npv"
	"nntstream/internal/obs"
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
// Shared factors integrate as dominance units: a factored query vertex
// contributes only its *residual* entries to the columns, plus one factor
// unit per decomposition. The factor unit is maintained by the per-stream
// memo — when a vertex's verdict on factor f flips at a seal, the dominant
// counters of every query vertex sharing f adjust by one, so the factor's
// packed evaluation is paid once per (vertex, timestamp) no matter how
// many query vertices it serves. DSC is the only strategy that factors
// (DESIGN §7 has the measurements), and it pins its factor set at the
// first Seal: a reseal would reassign every column entry and counter,
// which defeats the incremental design. Late-added queries still match
// against the existing factors.
type DSC struct {
	depth int
	// ix holds, per dimension, the query-vertex postings sorted by count —
	// residual entries only when the vertex is factored.
	ix *qindex.Index
	// nnz is the dominance-unit count per query vertex: its column entries
	// plus one factor unit when factored. Query vertices with empty
	// vectors (no edges) are trivially dominated and excluded.
	nnz map[qKey]int
	// fdec keeps each query vertex's decomposition, frozen at
	// registration, so dynamic removal can undo its column entries and
	// position-counter contributions. The stream side stays on the
	// incremental counter structure — DSC never scans whole vectors.
	fdec map[qKey]factor.Factored
	// ft is the shared-factor table (nil = factoring disabled) and
	// fmembers the query vertices subscribed to each factor's flips.
	ft       *factor.Table
	fmembers map[factor.ID][]qKey
	// pending buffers pre-seal query registrations: their decompositions
	// exist only once the first stream seals the factor table, so the
	// column entries and unit counts are derived then, in arrival order.
	pending []pendingQV
	// qsize counts the query vertices that must be covered per query.
	qsize   map[core.QueryID]int
	streams map[core.StreamID]*dscStream
	// domUpdates counts dominance-counter adjustments (incDom+decDom) over
	// the run — the paper's "entries crossed" work measure. Written only on
	// the (serialized) maintenance path — parallel batches accumulate
	// per-stream counts and merge them after the join — and read by
	// CollectMetrics.
	domUpdates int64
	pool       evalPool
}

type dscStream struct {
	st *streamState
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

// pendingQV is one pre-seal query-vertex registration awaiting the factor
// table's discovery pass.
type pendingQV struct {
	k   qKey
	vec npv.PackedVector
}

// NewDSC returns a dominated-set-cover filter with the given NNT depth.
func NewDSC(depth int) *DSC {
	return &DSC{
		depth:    depth,
		ix:       qindex.New(),
		nnz:      make(map[qKey]int),
		fdec:     make(map[qKey]factor.Factored),
		ft:       factor.NewTable(),
		fmembers: make(map[factor.ID][]qKey),
		qsize:    make(map[core.QueryID]int),
		streams:  make(map[core.StreamID]*dscStream),
	}
}

// DisableFactors turns off shared-factor evaluation: every query vertex's
// full vector lands in the columns and streams skip packing and the memo.
// The benchmark baseline and equivalence reference; must be called before
// any query or stream is registered.
func (f *DSC) DisableFactors() {
	if len(f.qsize) != 0 || len(f.streams) != 0 {
		panic("join: DisableFactors after registration")
	}
	f.ft = nil
}

// SetFactorThresholds forwards discovery thresholds to the factor table.
func (f *DSC) SetFactorThresholds(minSupport, minDims int) {
	f.ft.SetMinSupport(minSupport)
	f.ft.SetMinDims(minDims)
}

// Name implements core.Filter.
func (f *DSC) Name() string { return "NPV-DSC" }

// SetWorkers implements core.ParallelFilter.
func (f *DSC) SetWorkers(n int) { f.pool.setWorkers(n) }

// AddQuery implements core.Filter. Before the first stream, registrations
// are buffered (the factor table's discovery has not run, so the column
// entries are not yet known) and drained at the seal; afterwards
// (core.DynamicFilter) each vertex is decomposed against the existing
// factors, its residual entries inserted into their sorted columns, and
// every stream's counters fixed up in place.
func (f *DSC) AddQuery(id core.QueryID, q *graph.Graph) error {
	if _, ok := f.qsize[id]; ok {
		return fmt.Errorf("join: duplicate query %d", id)
	}
	size := 0
	proj := projectQuery(q, f.depth)
	ids := make([]graph.VertexID, 0, len(proj))
	for v := range proj {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, v := range ids {
		vec := npv.Pack(proj[v])
		if vec.Len() == 0 {
			continue // trivially dominated (isolated query vertex)
		}
		k := qKey{Q: id, V: v}
		size++
		if f.ft != nil {
			f.ft.Add(factor.Key{Query: id, Vertex: v}, vec)
		}
		if !f.ix.Sealed() {
			f.pending = append(f.pending, pendingQV{k: k, vec: vec})
			continue
		}
		f.registerQueryVertex(k, vec)
		for _, ds := range f.streams {
			f.attachQueryVertex(ds, k)
		}
	}
	f.qsize[id] = size
	return nil
}

// registerQueryVertex derives k's dominance units — residual column
// entries plus the factor unit — and installs the column postings. The
// factor table must already be sealed when factoring is on.
func (f *DSC) registerQueryVertex(k qKey, vec npv.PackedVector) {
	dec := factor.Unfactored(vec)
	if f.ft != nil {
		d, ok := f.ft.Decomp(factor.Key{Query: k.Q, Vertex: k.V})
		if !ok {
			panic(fmt.Sprintf("join: query vertex %v missing from sealed factor table", k))
		}
		dec = d
	}
	f.fdec[k] = dec
	units := dec.Residual.Len()
	if dec.Factor != factor.None {
		units++
		f.fmembers[dec.Factor] = append(f.fmembers[dec.Factor], k)
	}
	f.nnz[k] = units
	// The index handles both phases: build-phase postings are appended and
	// batch-sorted once at Seal, live additions insert at the sorted
	// position per column.
	f.ix.Add(qindex.Key{Query: k.Q, Vertex: k.V}, dec.Residual)
}

// attachQueryVertex registers a live-added query vertex with one stream:
// every stream vertex's position counters gain the new residual column
// entries they are ≥ of, and its dominant counter for the new key is
// derived directly — the factor unit from the memoized verdict, which is
// current because every filter path seals before returning.
func (f *DSC) attachQueryVertex(ds *dscStream, k qKey) {
	dec := f.fdec[k]
	res := dec.Residual
	ds.st.store.Vectors(func(v graph.VertexID, vvec npv.Vector) bool {
		cnt := 0
		for i := 0; i < res.Len(); i++ {
			d, c := res.Dim(i), res.Count(i)
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
		if dec.Factor != factor.None && ds.st.memo.Has(v, dec.Factor) {
			cnt++
		}
		if cnt > 0 {
			dom := ds.dom[v]
			if dom == nil {
				dom = make(map[qKey]int)
				ds.dom[v] = dom
			}
			dom[k] = cnt
			if cnt == f.nnz[k] {
				ds.cover[k]++
				if ds.cover[k] == 1 {
					ds.covered[k.Q]++
				}
			}
		}
		return true
	})
}

// RemoveQuery implements core.DynamicFilter: the query's residual column
// entries are deleted, stream position counters are rolled back, its
// factor memberships unsubscribe, and its cover state is dropped
// wholesale. Pre-seal removals only have the pending buffer and the factor
// table to clean.
func (f *DSC) RemoveQuery(id core.QueryID) error {
	if _, ok := f.qsize[id]; !ok {
		return fmt.Errorf("join: unknown query %d", id)
	}
	f.ix.RemoveQuery(id)
	if f.ft != nil {
		f.ft.RemoveQuery(id)
	}
	if len(f.pending) > 0 {
		kept := f.pending[:0]
		for _, p := range f.pending {
			if p.k.Q != id {
				kept = append(kept, p)
			}
		}
		f.pending = kept
	}
	for k, dec := range f.fdec {
		if k.Q != id {
			continue
		}
		res := dec.Residual
		for qi := 0; qi < res.Len(); qi++ {
			d, c := res.Dim(qi), res.Count(qi)
			for _, ds := range f.streams {
				f.rollbackPositions(ds, d, c)
			}
		}
		if dec.Factor != factor.None {
			f.dropMember(dec.Factor, k)
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
		delete(f.nnz, k)
		delete(f.fdec, k)
	}
	for _, ds := range f.streams {
		delete(ds.covered, id)
	}
	delete(f.qsize, id)
	return nil
}

// dropMember unsubscribes k from factor fid's flip list.
func (f *DSC) dropMember(fid factor.ID, k qKey) {
	membs := f.fmembers[fid]
	for i, m := range membs {
		if m == k {
			membs[i] = membs[len(membs)-1]
			membs = membs[:len(membs)-1]
			break
		}
	}
	if len(membs) == 0 {
		delete(f.fmembers, fid)
	} else {
		f.fmembers[fid] = membs
	}
}

// rollbackPositions decrements the position counter of every stream vertex
// that counted a removed column entry of value c in dimension d.
func (f *DSC) rollbackPositions(ds *dscStream, d npv.Dim, c int32) {
	ds.st.store.Vectors(func(v graph.VertexID, vvec npv.Vector) bool {
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

// AddStream implements core.Filter. The first stream runs factor discovery
// over the buffered query set, drains the pending registrations into the
// columns, and seals the index.
func (f *DSC) AddStream(id core.StreamID, g0 *graph.Graph) error {
	if !f.ix.Sealed() {
		if f.ft != nil {
			f.ft.Seal()
		}
		// Drain in arrival order; the build-phase columns sort once at
		// ix.Seal, so the sealed postings are order-independent anyway.
		for _, p := range f.pending {
			f.registerQueryVertex(p.k, p.vec)
		}
		f.pending = nil
		f.ix.Seal()
	}
	if _, ok := f.streams[id]; ok {
		return fmt.Errorf("join: duplicate stream %d", id)
	}
	ds := &dscStream{
		st:      newStreamState(g0, f.depth, false, f.ft),
		pos:     make(map[graph.VertexID]map[npv.Dim]int),
		dom:     make(map[graph.VertexID]map[qKey]int),
		cover:   make(map[qKey]int),
		covered: make(map[core.QueryID]int),
	}
	f.streams[id] = ds
	f.domUpdates += f.reconcileStream(ds)
	return nil
}

// Apply implements core.Filter as a one-entry batch.
func (f *DSC) Apply(id core.StreamID, cs graph.ChangeSet) error {
	return f.ApplyAll(map[core.StreamID]graph.ChangeSet{id: cs})
}

// reconcileStream folds the stream's dirty vertices into its counters. On
// the factored path each dirty vertex first re-evaluates every factor once
// against its sealed packed vector; a flipped factor verdict adjusts the
// dominant counter of every subscribed query vertex by one unit, and the
// residual column entries are then crossed as usual.
func (f *DSC) reconcileStream(ds *dscStream) int64 {
	var work int64
	if f.ft == nil {
		for _, v := range ds.st.store.TakeDirty() {
			f.updateVertex(ds, v, &work)
		}
		return work
	}
	for _, dl := range ds.st.store.SealDirty() {
		v := dl.Vertex
		ds.st.memo.Update(v, dl.New, dl.HasNew, func(fid factor.ID, now bool) {
			for _, k := range f.fmembers[fid] {
				if now {
					f.incDom(ds, v, k, &work)
				} else {
					f.decDom(ds, v, k, &work)
				}
			}
		})
		f.updateVertex(ds, v, &work)
	}
	return work
}

// ApplyAll implements core.BatchApplier, and is the only code path that
// advances a stream: one task per stream — NPV recount, then the
// dominance counter updates of the dirty vertices — because DSC's dominance
// re-evaluation *is* the per-stream counter maintenance. Every (stream,
// query) verdict is an aggregate (covered == qsize) the stream's own
// counters answer, so the stream is the finest unit that avoids write
// sharing. Tasks touch only their own stream's state (plus the read-only
// shared columns and factor table) and work slot; the merge walks slots in
// StreamID order.
func (f *DSC) ApplyAll(changes map[core.StreamID]graph.ChangeSet) error {
	works := make([]int64, len(changes))
	_, err := f.pool.runStreams(changes, func(i int, id core.StreamID, cs graph.ChangeSet) error {
		ds, ok := f.streams[id]
		if !ok {
			return fmt.Errorf("join: unknown stream %d", id)
		}
		if err := ds.st.store.Apply(cs); err != nil {
			return err
		}
		works[i] = f.reconcileStream(ds)
		return nil
	})
	for _, w := range works {
		f.domUpdates += w
	}
	return err
}

// updateVertex moves stream vertex v's position counters to match its
// current NPV, adjusting dominant counters for exactly the query entries
// crossed in each dimension. Counter work is accumulated into *work so
// concurrent per-stream tasks never share a cell.
func (f *DSC) updateVertex(ds *dscStream, v graph.VertexID, work *int64) {
	newVec := ds.st.store.Vector(v) // nil when v was retired
	pos := ds.pos[v]

	// Dimensions to reconcile: all with a nonzero old position plus all in
	// the new vector's support (restricted to dimensions queries use).
	touch := make(map[npv.Dim]struct{}, len(pos)+len(newVec))
	for d := range pos {
		touch[d] = struct{}{}
	}
	for d := range newVec {
		if f.ix.HasDim(d) {
			touch[d] = struct{}{}
		}
	}
	if len(touch) == 0 {
		return
	}
	if pos == nil {
		pos = make(map[npv.Dim]int)
		ds.pos[v] = pos
	}
	for d := range touch {
		col := f.ix.Postings(d)
		oldPos := pos[d]
		newVal := newVec.Get(d) // Get on nil map is safe: method on map type
		newPos := qindex.UpperBound(col, newVal)
		switch {
		case newPos > oldPos:
			for _, e := range col[oldPos:newPos] {
				f.incDom(ds, v, qKey{Q: e.Key.Query, V: e.Key.Vertex}, work)
			}
		case newPos < oldPos:
			for _, e := range col[newPos:oldPos] {
				f.decDom(ds, v, qKey{Q: e.Key.Query, V: e.Key.Vertex}, work)
			}
		}
		if newPos == 0 {
			delete(pos, d)
		} else {
			pos[d] = newPos
		}
	}
	if len(pos) == 0 {
		delete(ds.pos, v)
	}
	if dom := ds.dom[v]; dom != nil && len(dom) == 0 {
		delete(ds.dom, v)
	}
}

func (f *DSC) incDom(ds *dscStream, v graph.VertexID, k qKey, work *int64) {
	*work++
	dom := ds.dom[v]
	if dom == nil {
		dom = make(map[qKey]int)
		ds.dom[v] = dom
	}
	dom[k]++
	if dom[k] == f.nnz[k] {
		ds.cover[k]++
		if ds.cover[k] == 1 {
			ds.covered[k.Q]++
		}
	}
}

func (f *DSC) decDom(ds *dscStream, v graph.VertexID, k qKey, work *int64) {
	*work++
	dom := ds.dom[v]
	if dom[k] == f.nnz[k] {
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

var _ obs.Collector = (*DSC)(nil)

// CollectMetrics implements obs.Collector with the structure sizes that
// drive DSC's per-step cost: sorted-column entries, position/dominance
// counter footprints, and the NNT node count the stream vectors project.
func (f *DSC) CollectMetrics(emit func(name string, value float64)) {
	emit("nntstream_dsc_column_entries", float64(f.ix.PostingCount()))
	emit("nntstream_dsc_columns", float64(f.ix.DimCount()))
	emit("nntstream_qindex_postings", float64(f.ix.PostingCount()))
	emit("nntstream_dsc_query_vertices", float64(len(f.nnz)+len(f.pending)))
	emit("nntstream_dsc_dom_updates_total", float64(f.domUpdates))
	if f.ft != nil {
		f.ft.CollectMetrics(emit)
	}
	nodes, posVerts, domVerts := 0, 0, 0
	for _, ds := range f.streams {
		nodes += ds.st.store.Nodes()
		posVerts += len(ds.pos)
		domVerts += len(ds.dom)
	}
	emit("nntstream_filter_nnt_nodes", float64(nodes))
	emit("nntstream_filter_streams", float64(len(f.streams)))
	emit("nntstream_dsc_position_vertices", float64(posVerts))
	emit("nntstream_dsc_dominance_vertices", float64(domVerts))
	f.pool.collect(emit)
}
