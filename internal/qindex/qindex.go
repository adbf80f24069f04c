// Package qindex is an exact candidate-generating index over the packed
// NPV vectors of registered queries, the structure that makes per-timestamp
// query matching sub-linear in the number of registered queries.
//
// Every join strategy answers the same question each timestamp: which of
// the registered queries could a dirty stream vertex have newly dominated
// or un-dominated (Lemma 4.2)? Scanning all queries is O(queries) per dirty
// vertex — the wall at "millions of users each registering queries". The
// index inverts the query set instead, borrowing the candidate-generation
// discipline of graph NN indexes but adapted from metric geometry to exact
// dominance, where sound pruning needs no distance bound:
//
//   - One sorted posting list per NPV dimension ("column"), holding every
//     registered query vector's count in that dimension. A stream vertex
//     whose count in dimension d moved from a to b can only have flipped
//     the per-dimension predicate v[d] ≥ u[d] for query vectors u with
//     u[d] in (min(a,b), max(a,b)] — two binary searches per changed
//     dimension retrieve exactly those postings.
//   - Each posting carries its whole vector's 64-bit support signature
//     (npv.PackedVector.Sig). A query vector u can be dominated by a stream
//     vector p only if sig(u) &^ sig(p) == 0.
//   - Each posting also carries its whole packed vector, so a range hit can
//     be settled on the spot by the packed kernel against the *one* dirty
//     vertex.
//   - Every query holds a dense, recycled slot, carried in its postings, so
//     per-query state — a Scratch's dedupe stamps, a join's verdicts and
//     memos — is an array indexed by slot and nothing is hashed per posting.
//
// The walk over one vertex's transition (Cross) knows which way it crossed
// each posting. On a drop (new[d] < u[d] ≤ old[d], retirement included) the
// new vector does not dominate u, so the flip test is old ≽ u and the
// signature filter is sig(u) ⊆ sig(old); on a rise (old[d] < u[d] ≤ new[d],
// appearance included) the old vector did not dominate u, so the test is
// new ≽ u against sig(new). A flip therefore costs one kernel call, and a
// posting the transition crosses both ways fails both tests.
//
// Dominance of u by v flips only if some per-dimension predicate of u's
// support flips, so the union of the per-dimension crossings over a dirty
// vertex's (old, new) transition covers every query vector whose dominance
// by that vertex changed; the per-posting flip test then keeps exactly
// those. A query outside the result provably kept every per-(vertex,
// vector) dominance bit, hence its verdict — a monotone function of those
// bits — is unchanged. No false negatives by construction; the caller
// re-evaluates the returned queries with the ordinary kernel, so filter
// answers are bit-identical to the unindexed scan.
//
// Lifecycle: registration appends cheaply, and Seal sorts the columns once.
// Post-seal mutations (dynamic query add/remove) keep the columns sorted in
// place. Between mutations the index is immutable, so the join pool's
// fan-out reads it race-free — mutation only ever happens on the engines'
// serialized registration path.
package qindex

import (
	"slices"
	"sort"
	"sync/atomic"

	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/npv"
)

// Key identifies one registered query vector: the owning query plus a
// vector identity within it. Strategies that keep per-vertex vectors (DSC)
// use the query-graph vertex ID; strategies that keep positional slices
// (NL, Skyline's maximal set) use the slice index.
type Key struct {
	Query  core.QueryID
	Vertex graph.VertexID
}

// Posting is one column entry: a registered query vector's count in the
// column's dimension, its query's dense slot, the vector's support signature
// for the subset pre-filter, and the packed vector itself for the exact flip
// test (the slices inside Vec are shared with the registered vector, not
// copied). Postings are ordered by (Count, Key) within a sealed column.
type Posting struct {
	Key   Key
	Count int32
	Slot  int32
	Sig   uint64
	Vec   npv.PackedVector
}

// Candidate-generation telemetry: query verdicts a candidate set sent to
// re-evaluation, and those it spared (Finish counts both). Process-global
// atomics (candidate sets are built concurrently inside the join pool's
// fan-out); the server registers them as scrape-time counters on
// /v1/metrics.
var (
	candidatesTotal atomic.Int64
	prunedTotal     atomic.Int64
)

// Counters returns the index's process-global selectivity totals.
func Counters() (candidates, pruned int64) {
	return candidatesTotal.Load(), prunedTotal.Load()
}

// Index is the candidate-generating index over one filter's registered
// query vectors. The zero value is not ready; use New.
type Index struct {
	cols map[npv.Dim][]Posting
	// slots gives every registered query a dense slot, recycled through free
	// after RemoveQuery; queries maps a slot back to its owner and dims to
	// the columns its postings live in. The key set of slots is the
	// candidate universe AffectedQueries prunes.
	slots   map[core.QueryID]int32
	queries []core.QueryID
	dims    [][]npv.Dim
	free    []int32
	// empties lists the slots of queries with an empty-support vector. An
	// empty vector is dominated by any present vertex, so its verdict can
	// flip only when vertex presence changes — those queries are indexed
	// here instead of in the columns.
	empties []int32
	sealed  bool
}

// Scratch is a caller-owned candidate set: seen holds, per query slot, the
// stamp of the last set that collected it, out the set's queries, and
// queries the index's slot-to-query table as of Begin. One Scratch serves
// one goroutine at a time; the zero value is ready.
type Scratch struct {
	stamp   uint32
	seen    []uint32
	out     []core.QueryID
	queries []core.QueryID
	// dl and tally serve AffectedQueriesInto's flip test.
	dl    npv.DirtyDelta
	tally npv.Tally
}

// Visitor receives the postings one vertex transition crosses (Index.Cross).
type Visitor interface {
	// Cross is called for each posting e whose count lies in a crossed
	// range and whose signature the crossing side covers, once per crossed
	// dimension of e's support. drop says the vertex's count fell below
	// e.Count there (or it retired), so its new vector does not dominate
	// e.Vec; otherwise it rose to e.Count (or appeared), so its old vector
	// did not.
	Cross(e *Posting, drop bool)
}

// New returns an empty, unsealed index.
func New() *Index {
	return &Index{
		cols:  make(map[npv.Dim][]Posting),
		slots: make(map[core.QueryID]int32),
	}
}

// Register returns q's slot, issuing one — a freed slot first — if q has
// none. Add registers its query itself; a caller that keeps per-query state
// by slot registers a query before, or instead of, adding its vectors.
func (ix *Index) Register(q core.QueryID) int32 {
	if slot, ok := ix.slots[q]; ok {
		return slot
	}
	var slot int32
	if n := len(ix.free); n > 0 {
		slot, ix.free = ix.free[n-1], ix.free[:n-1]
		ix.queries[slot] = q
	} else {
		slot = int32(len(ix.queries))
		ix.queries = append(ix.queries, q)
		ix.dims = append(ix.dims, nil)
	}
	ix.slots[q] = slot
	return slot
}

// Add registers one query vector under k. Before Seal, postings are
// appended (sorted once at Seal); afterwards each posting is inserted at
// its sorted position. Registering the same key
// twice is a caller bug and is not detected here — filters already reject
// duplicate query IDs.
func (ix *Index) Add(k Key, p npv.PackedVector) {
	slot := ix.Register(k.Query)
	if p.Len() == 0 {
		if !slices.Contains(ix.empties, slot) {
			ix.empties = append(ix.empties, slot)
		}
		return
	}
	sig := p.Sig()
	for i := 0; i < p.Len(); i++ {
		d := p.Dim(i)
		if !slices.Contains(ix.dims[slot], d) {
			ix.dims[slot] = append(ix.dims[slot], d)
		}
		e := Posting{Key: k, Count: p.Count(i), Slot: slot, Sig: sig, Vec: p}
		col := ix.cols[d]
		if !ix.sealed {
			ix.cols[d] = append(col, e)
			continue
		}
		at := sort.Search(len(col), func(i int) bool { return !postingLess(col[i], e) })
		ix.cols[d] = slices.Insert(col, at, e)
	}
}

// RemoveQuery drops every posting of q and reports whether q was
// registered. Only q's own columns are visited; columns left empty are
// deleted, so HasDim stays an exact "some query uses this dimension" test.
func (ix *Index) RemoveQuery(q core.QueryID) bool {
	slot, ok := ix.slots[q]
	if !ok {
		return false
	}
	delete(ix.slots, q)
	ix.free = append(ix.free, slot)
	if i := slices.Index(ix.empties, slot); i >= 0 {
		ix.empties = slices.Delete(ix.empties, i, i+1)
	}
	for _, d := range ix.dims[slot] {
		col := slices.DeleteFunc(ix.cols[d], func(e Posting) bool { return e.Slot == slot })
		if len(col) == 0 {
			delete(ix.cols, d)
		} else {
			ix.cols[d] = col
		}
	}
	ix.dims[slot] = ix.dims[slot][:0]
	return true
}

// Seal sorts the build-phase columns and marks the index readable. The
// first call does the one-time sort; later calls are no-ops, so filters
// may call it unconditionally at every evaluation entry point.
func (ix *Index) Seal() {
	if ix.sealed {
		return
	}
	ix.sealed = true
	for _, col := range ix.cols {
		sort.Slice(col, func(i, j int) bool { return postingLess(col[i], col[j]) })
	}
}

// postingLess orders postings by count, breaking ties by key so sealed
// column order is deterministic (the mapdeterm discipline: ties must not
// depend on registration map iteration).
//
//nnt:hotpath
func postingLess(a, b Posting) bool {
	if a.Count != b.Count {
		return a.Count < b.Count
	}
	if a.Key.Query != b.Key.Query {
		return a.Key.Query < b.Key.Query
	}
	return a.Key.Vertex < b.Key.Vertex
}

// QueryCount reports the number of registered queries.
func (ix *Index) QueryCount() int { return len(ix.slots) }

// PostingCount reports the total number of column entries.
func (ix *Index) PostingCount() int {
	n := 0
	for _, col := range ix.cols {
		n += len(col)
	}
	return n
}

// HasDim reports whether any registered query vector uses dimension d.
func (ix *Index) HasDim(d npv.Dim) bool {
	_, ok := ix.cols[d]
	return ok
}

// Postings returns dimension d's sorted column (nil when unused). The
// slice is owned by the index: callers must not mutate it, and must not
// retain it across a mutation. DSC reads its crossed-entry ranges straight
// from these columns.
func (ix *Index) Postings(d npv.Dim) []Posting { return ix.cols[d] }

// UpperBound returns the number of postings with Count ≤ val — the
// position a stream vertex with count val occupies in the column.
//
//nnt:hotpath
func UpperBound(col []Posting, val int32) int {
	return sort.Search(len(col), func(i int) bool { return col[i].Count > val })
}

// AffectedQueries returns the queries whose dominance verdict against the
// stream could have changed across the given seal transition, in ascending
// QueryID order. The contract the filters rely on is "never misses an
// affected query"; the implementation is in fact exact at the granularity
// of per-(vertex, vector) dominance bits — a query is returned iff some of
// its vectors' dominance by some dirty vertex flipped (treating an absent
// vertex as dominating nothing, so empty-support vectors flip with
// presence). The caller re-evaluates exactly these and keeps every other
// verdict.
//
// It must only be called on a sealed index. It reads immutable state plus
// atomic counters, so concurrent calls (one per stream inside the batch
// fan-out) are race-free. It is AffectedQueriesInto with a fresh Scratch,
// so the result is the caller's to keep.
func (ix *Index) AffectedQueries(deltas []npv.DirtyDelta) []core.QueryID {
	return ix.AffectedQueriesInto(new(Scratch), deltas)
}

// AffectedQueriesInto is AffectedQueries collecting into sc: every delta's
// crossing walk runs the one-kernel flip test on postings of queries not
// collected yet. The result aliases sc and is valid until the next call
// with sc. Concurrent calls need distinct Scratches.
func (ix *Index) AffectedQueriesInto(sc *Scratch, deltas []npv.DirtyDelta) []core.QueryID {
	if !ix.sealed {
		panic("qindex: AffectedQueries before Seal")
	}
	if len(ix.slots) == 0 || len(deltas) == 0 {
		return nil
	}
	ix.Begin(sc)
	presence := false
	for _, dl := range deltas {
		sc.dl = dl
		presence = ix.Cross(dl, sc) || presence
	}
	sc.tally.Flush()
	return ix.Finish(sc, presence)
}

// Cross implements Visitor with AffectedQueriesInto's flip test: a drop
// flips the posting's dominance iff the old vector dominated it, a rise iff
// the new one does.
//
//nnt:hotpath
func (sc *Scratch) Cross(e *Posting, drop bool) {
	if sc.seen[e.Slot] == sc.stamp {
		return
	}
	side := sc.dl.New
	if drop {
		side = sc.dl.Old
	}
	if sc.tally.Dominates(side, e.Vec) {
		sc.Collect(e.Slot)
	}
}

// Begin empties sc for a new candidate set over ix's registered queries,
// sizing it so that Collect never allocates.
func (ix *Index) Begin(sc *Scratch) {
	if sc.stamp++; sc.stamp == 0 {
		// Wrapped: a stale stamp could equal the new one.
		clear(sc.seen)
		sc.stamp = 1
	}
	if n := len(ix.queries); len(sc.seen) < n {
		sc.seen = append(sc.seen, make([]uint32, n-len(sc.seen))...)
	}
	if n := len(ix.slots); cap(sc.out) < n {
		sc.out = make([]core.QueryID, 0, n)
	}
	sc.out, sc.queries = sc.out[:0], ix.queries
}

// Collect adds slot's query to sc's set unless the set already holds it.
// Begin gave sc.out room for every registered query, so the reslice stays
// within capacity.
//
//nnt:hotpath
func (sc *Scratch) Collect(slot int32) {
	if sc.seen[slot] != sc.stamp {
		sc.seen[slot] = sc.stamp
		n := len(sc.out)
		sc.out = sc.out[:n+1]
		sc.out[n] = sc.queries[slot]
	}
}

// Finish closes sc's set and returns it in ascending QueryID order. When
// presence changed — some vertex appeared or retired — it first adds every
// query with an empty-support vector, which any present vertex dominates
// (the stream may have gained its first vertex or lost its last). The set
// counts as candidates and the other registered queries as pruned.
func (ix *Index) Finish(sc *Scratch, presence bool) []core.QueryID {
	if presence {
		for _, slot := range ix.empties {
			sc.Collect(slot)
		}
	}
	slices.Sort(sc.out)
	candidatesTotal.Add(int64(len(sc.out)))
	prunedTotal.Add(int64(len(ix.slots) - len(sc.out)))
	return sc.out
}

// Cross walks the postings vertex transition dl crosses and reports whether
// dl changed the vertex's presence. The two sorted supports are merged in
// lockstep, absent dimensions counting zero and an absent side being the
// empty vector, so an appearance rises through (0, new[d]] and a retirement
// drops through (0, old[d]] of each of its dimensions. Every posting whose
// dominance by the vertex flipped is visited, in the direction it flipped:
// a vector u that old dominated and new does not has some d ∈ supp(u) with
// new[d] < u[d] ≤ old[d], and sig(u) ⊆ sig(old); symmetrically for a rise.
//
//nnt:hotpath
func (ix *Index) Cross(dl npv.DirtyDelta, v Visitor) bool {
	old, new := dl.Old, dl.New
	i, j := 0, 0
	for i < old.Len() || j < new.Len() {
		switch {
		case j == new.Len() || (i < old.Len() && old.Dim(i) < new.Dim(j)):
			ix.crossRange(old.Dim(i), 0, old.Count(i), old.Sig(), true, v)
			i++
		case i == old.Len() || new.Dim(j) < old.Dim(i):
			ix.crossRange(new.Dim(j), 0, new.Count(j), new.Sig(), false, v)
			j++
		default:
			if oc, nc := old.Count(i), new.Count(j); oc > nc {
				ix.crossRange(old.Dim(i), nc, oc, old.Sig(), true, v)
			} else if oc < nc {
				ix.crossRange(new.Dim(j), oc, nc, new.Sig(), false, v)
			}
			i++
			j++
		}
	}
	return dl.HadOld != dl.HasNew
}

// crossRange visits dimension d's postings with lo < Count ≤ hi whose
// signature is a subset of sig, the crossing side's.
//
//nnt:hotpath
func (ix *Index) crossRange(d npv.Dim, lo, hi int32, sig uint64, drop bool, v Visitor) {
	col := ix.cols[d]
	for k, end := UpperBound(col, lo), UpperBound(col, hi); k < end; k++ {
		if e := &col[k]; e.Sig&^sig == 0 {
			v.Cross(e, drop)
		}
	}
}
