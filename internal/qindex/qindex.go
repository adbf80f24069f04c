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
//     vector p only if sig(u) &^ sig(p) == 0, so postings whose signature is
//     not a subset of the before-vector's nor the after-vector's signature
//     are pruned without touching the query again: their dominance verdict
//     was false on both sides of the transition.
//   - Each posting also carries its whole packed vector, so a range hit is
//     settled on the spot by the packed kernel against the *one* dirty
//     vertex: the query is a candidate iff old-dominates ≠ new-dominates.
//     That test is two small sorted merges — orders of magnitude cheaper
//     than the full re-evaluation (every vector of the query against every
//     stream vertex) it saves when the bit did not flip, which is the
//     common case on streams whose counts drift by ±1.
//   - Every query holds a dense, recycled slot, carried in its postings.
//     A query is deduplicated by stamping its slot in a caller-owned
//     Scratch array, checked right after the signature reject, so a query
//     already collected this call skips the kernel and nothing is hashed
//     per posting.
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

// Candidate-generation telemetry: query verdicts re-evaluated because the
// index named them, and query verdicts proven unchanged without a dominance
// test. Process-global atomics (AffectedQueries runs concurrently inside
// the join pool's fan-out); the server registers them as scrape-time
// counters on /v1/metrics.
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
	// after RemoveQuery, so candidate dedupe indexes a Scratch array instead
	// of hashing; queries maps a slot back to its owner. Its key set is the
	// candidate universe AffectedQueries prunes.
	slots   map[core.QueryID]int32
	queries []core.QueryID
	free    []int32
	// empties lists the slots of queries with an empty-support vector. An
	// empty vector is dominated by any present vertex, so its verdict can
	// flip only when vertex presence changes — those queries are indexed
	// here instead of in the columns.
	empties []int32
	sealed  bool
}

// Scratch is a caller-owned dedupe buffer for AffectedQueriesInto: seen
// holds, per query slot, the stamp of the last call that collected it. One
// Scratch serves one goroutine at a time; the zero value is ready.
type Scratch struct {
	stamp uint32
	seen  []uint32
	out   []core.QueryID
	tally npv.Tally
}

// New returns an empty, unsealed index.
func New() *Index {
	return &Index{
		cols:  make(map[npv.Dim][]Posting),
		slots: make(map[core.QueryID]int32),
	}
}

// Add registers one query vector under k. Before Seal, postings are
// appended (sorted once at Seal); afterwards each posting is inserted at
// its sorted position. Registering the same key
// twice is a caller bug and is not detected here — filters already reject
// duplicate query IDs.
func (ix *Index) Add(k Key, p npv.PackedVector) {
	slot, ok := ix.slots[k.Query]
	if !ok {
		if n := len(ix.free); n > 0 {
			slot, ix.free = ix.free[n-1], ix.free[:n-1]
			ix.queries[slot] = k.Query
		} else {
			slot = int32(len(ix.queries))
			ix.queries = append(ix.queries, k.Query)
		}
		ix.slots[k.Query] = slot
	}
	if p.Len() == 0 {
		if !slices.Contains(ix.empties, slot) {
			ix.empties = append(ix.empties, slot)
		}
		return
	}
	sig := p.Sig()
	for i := 0; i < p.Len(); i++ {
		d := p.Dim(i)
		e := Posting{Key: k, Count: p.Count(i), Slot: slot, Sig: sig, Vec: p}
		col := ix.cols[d]
		if !ix.sealed {
			ix.cols[d] = append(col, e)
			continue
		}
		at := sort.Search(len(col), func(i int) bool { return !postingLess(col[i], e) })
		col = append(col, Posting{})
		copy(col[at+1:], col[at:])
		col[at] = e
		ix.cols[d] = col
	}
}

// RemoveQuery drops every posting of q and reports whether q was
// registered. Columns left empty are deleted, so HasDim stays an exact
// "some query uses this dimension" test.
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
	for d, col := range ix.cols {
		kept := col[:0]
		for _, e := range col {
			if e.Key.Query != q {
				kept = append(kept, e)
			}
		}
		if len(kept) == 0 {
			delete(ix.cols, d)
		} else {
			ix.cols[d] = kept
		}
	}
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

// AffectedQueriesInto is AffectedQueries deduplicating through sc: a query
// is collected the first time one of its postings flips, and its slot's
// stamp makes every later posting of it skip the kernel. The result aliases
// sc and is valid until the next call with sc. Concurrent calls need
// distinct Scratches.
func (ix *Index) AffectedQueriesInto(sc *Scratch, deltas []npv.DirtyDelta) []core.QueryID {
	if !ix.sealed {
		panic("qindex: AffectedQueries before Seal")
	}
	sc.out = sc.out[:0]
	if len(ix.slots) == 0 || len(deltas) == 0 {
		return nil
	}
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
	presence := false
	for _, dl := range deltas {
		switch {
		case dl.HadOld && dl.HasNew:
			ix.collectChanged(sc, dl.Old, dl.New)
		case dl.HasNew:
			// Vertex appeared: it can only add dominance, and only over
			// vectors whose support it reaches.
			presence = true
			ix.collectReachable(sc, dl.New)
		case dl.HadOld:
			// Vertex retired: it can only withdraw dominance it could have
			// held, bounded by its last sealed vector.
			presence = true
			ix.collectReachable(sc, dl.Old)
		}
	}
	if presence {
		// Empty-support vectors are dominated by any present vertex, so
		// their queries are affected whenever presence changed (the stream
		// may have gained its first vertex or lost its last).
		for _, slot := range ix.empties {
			ix.collect(sc, slot)
		}
	}
	slices.Sort(sc.out)
	sc.tally.Flush()
	candidatesTotal.Add(int64(len(sc.out)))
	prunedTotal.Add(int64(len(ix.slots) - len(sc.out)))
	return sc.out
}

// collect adds slot's query to sc's result unless this call already has.
// AffectedQueriesInto gave sc.out room for every registered query, so the
// reslice stays within capacity.
//
//nnt:hotpath
func (ix *Index) collect(sc *Scratch, slot int32) {
	if sc.seen[slot] != sc.stamp {
		sc.seen[slot] = sc.stamp
		n := len(sc.out)
		sc.out = sc.out[:n+1]
		sc.out[n] = ix.queries[slot]
	}
}

// collectChanged walks the two sorted supports of a present-before-and-
// after vertex in lockstep. A query vector's per-dimension predicate
// v[d] ≥ u[d] flipped iff u[d] lies in (min(old[d],new[d]), max(...)]
// (absent dimensions count as zero), so each differing dimension turns
// into one crossed-range scan; range hits are settled exactly by
// collectChangedRange's flip test.
//
//nnt:hotpath
func (ix *Index) collectChanged(sc *Scratch, old, new npv.PackedVector) {
	i, j := 0, 0
	for i < old.Len() || j < new.Len() {
		switch {
		case j == new.Len() || (i < old.Len() && old.Dim(i) < new.Dim(j)):
			ix.collectChangedRange(sc, old.Dim(i), 0, old.Count(i), old, new)
			i++
		case i == old.Len() || new.Dim(j) < old.Dim(i):
			ix.collectChangedRange(sc, new.Dim(j), 0, new.Count(j), old, new)
			j++
		default:
			if oc, nc := old.Count(i), new.Count(j); oc != nc {
				ix.collectChangedRange(sc, old.Dim(i), min(oc, nc), max(oc, nc), old, new)
			}
			i++
			j++
		}
	}
}

// collectChangedRange examines dimension d's postings with lo < Count ≤ hi
// for a vertex present on both sides of the transition. The signature test
// drops vectors that could not have been dominated on either side, then
// queries this call already collected are skipped; survivors are settled
// exactly — the query is affected iff dominance by this vertex differs
// between the old and new vector.
//
//nnt:hotpath
func (ix *Index) collectChangedRange(sc *Scratch, d npv.Dim, lo, hi int32, old, new npv.PackedVector) {
	col := ix.cols[d]
	sigOld, sigNew := old.Sig(), new.Sig()
	for k, end := UpperBound(col, lo), UpperBound(col, hi); k < end; k++ {
		e := &col[k]
		if e.Sig&^sigOld != 0 && e.Sig&^sigNew != 0 || sc.seen[e.Slot] == sc.stamp {
			continue
		}
		if sc.tally.Dominates(old, e.Vec) != sc.tally.Dominates(new, e.Vec) {
			ix.collect(sc, e.Slot)
		}
	}
}

// collectReachable collects the queries a one-sided vertex (appeared or
// retired, vector p on its present side) flips: exactly the vectors p
// dominates, since the absent side dominates nothing. Any dominated vector
// u has supp(u) ⊆ supp(p) with u[d] ≤ p[d], so u appears in the (0, p[d]]
// range of every dimension of its own support — the union over p's
// dimensions cannot miss it.
//
//nnt:hotpath
func (ix *Index) collectReachable(sc *Scratch, p npv.PackedVector) {
	sig := p.Sig()
	for i := 0; i < p.Len(); i++ {
		col := ix.cols[p.Dim(i)]
		for k, end := 0, UpperBound(col, p.Count(i)); k < end; k++ {
			e := &col[k]
			if e.Sig&^sig != 0 || sc.seen[e.Slot] == sc.stamp {
				continue
			}
			if sc.tally.Dominates(p, e.Vec) {
				ix.collect(sc, e.Slot)
			}
		}
	}
}
