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
//   - One entry per distinct registered vector, named by a dense, recycled
//     ref and listing its owners, (query slot, position) pairs: a flip is
//     tested once per distinct vector and fans out to every owner.
//   - One column per NPV dimension, one 16-byte row per entry nonzero
//     there, as parallel slices of counts, support signatures
//     (npv.PackedVector.Sig) and refs, ordered by (count, ref) once sealed.
//     A stream vertex whose count in dimension d moved from a to b can only
//     have flipped the predicate v[d] ≥ u[d] for vectors u with u[d] in
//     (min(a,b), max(a,b)] — the column's table of row counts by count
//     bounds those rows, and the signature filter
//     sig(u) &^ sig(p) == 0 settles most of them.
//   - Queries hold dense slots, issued and recycled by the caller's answer
//     table (core.Verdicts), so per-query state is an array indexed by slot
//     and per-vector state one indexed by ref; nothing is hashed per row.
//
// The walk over one vertex's transition (Ranges) knows which way it crossed
// each row. On a drop (new[d] < u[d] ≤ old[d], retirement included) the
// new vector does not dominate u, so the flip test is old ≽ u and the
// signature filter is sig(u) ⊆ sig(old); on a rise (old[d] < u[d] ≤ new[d],
// appearance included) the old vector did not dominate u, so the test is
// new ≽ u against sig(new). A flip therefore costs one kernel call, and a
// row the transition crosses both ways fails both tests.
//
// Dominance of u by v flips only if some per-dimension predicate of u's
// support flips, so the union of the per-dimension crossings over a dirty
// vertex's (old, new) transition covers every query vector whose dominance
// by that vertex changed; the per-row flip test then keeps exactly those. A
// query outside the result provably kept every per-(vertex, vector)
// dominance bit, hence its verdict — a monotone function of those bits — is
// unchanged. No false negatives by construction; the caller re-evaluates
// the returned queries with the ordinary kernel, so filter answers are
// bit-identical to the unindexed scan.
//
// Lifecycle: registration appends cheaply, and Seal sorts the columns once.
// Post-seal mutations (dynamic query add/remove) keep the columns sorted in
// place, and rows move only when an entry is created or its last owner
// leaves. Between mutations the index is immutable, so the join pool's
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
// vector identity within it. The joins use the vector's position in the
// query's derived slice (DSC's every vertex, Skyline's maximal set).
type Key struct {
	Query  core.QueryID
	Vertex graph.VertexID
}

// Owner is one registration of an entry's vector: the owning query's slot
// and the vector's position in it (its Key.Vertex).
type Owner struct {
	Slot, Pos int32
}

// Entry is one distinct registered vector, with its content hash, and every
// registration of it. A freed entry has no owners and keeps its vector
// until its ref is reissued.
type Entry struct {
	Vec    npv.PackedVector
	Owners []Owner
	hash   uint64
}

// column is one dimension's rows, one per entry nonzero in it, as parallel
// slices: the entry's count there, its vector's signature, and its ref.
// Sealed columns are ordered by (count, ref), and at[c] is the number of
// rows with count ≤ c, for c from 0 to the smaller of the column's largest
// count and its row count, so a crossing bound within the table is one read
// (upTo) and the table never outgrows the rows, whatever counts a query
// brings.
type column struct {
	counts []int32
	sigs   []uint64
	refs   []int32
	at     []int32
}

// reindex rebuilds the sealed column's at table after its rows moved.
func (c *column) reindex() {
	top := min(int(c.counts[len(c.counts)-1]), len(c.counts))
	c.at = slices.Grow(c.at[:0], top+1)[:top+1]
	k := int32(0)
	for v := range c.at {
		for int(k) < len(c.counts) && c.counts[k] <= int32(v) {
			k++
		}
		c.at[v] = k
	}
}

// upTo returns the number of the sealed column's rows with count ≤ v: a
// read of the at table, or past its end a binary search of the rows the
// table does not cover (none, when it reaches the largest count).
//
//nnt:hotpath
func (c *column) upTo(v int32) int {
	if int(v) < len(c.at) {
		return int(c.at[v])
	}
	k := int(c.at[len(c.at)-1])
	return k + upperBound(c.counts[k:], v)
}

// upperBound returns the number of counts ≤ v in the ascending counts.
//
//nnt:hotpath
func upperBound(counts []int32, v int32) int {
	lo, hi := 0, len(counts)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if counts[m] <= v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

func (c *column) Len() int { return len(c.refs) }

func (c *column) Less(i, j int) bool {
	return c.counts[i] < c.counts[j] || c.counts[i] == c.counts[j] && c.refs[i] < c.refs[j]
}

func (c *column) Swap(i, j int) {
	c.counts[i], c.counts[j] = c.counts[j], c.counts[i]
	c.sigs[i], c.sigs[j] = c.sigs[j], c.sigs[i]
	c.refs[i], c.refs[j] = c.refs[j], c.refs[i]
}

// Range is one dimension's crossed rows in a vertex transition (Ranges):
// their signatures and refs (aliasing the index), the crossing side's
// signature, and whether the vertex dropped below the rows' counts.
type Range struct {
	Sigs []uint64
	Refs []int32
	Sig  uint64
	Drop bool
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
	cols map[npv.Dim]*column
	// caps is each dimension's high-water count: raised when a vector is
	// interned, never lowered (Cap).
	caps map[npv.Dim]int32
	// entries is indexed by ref; freed refs wait in freeRefs to be reissued.
	// byHash finds an entry by its vector's content hash. A vector whose
	// hash collides with another's gets an entry byHash does not name, so
	// it is merely not shared.
	entries  []Entry
	freeRefs []int32
	byHash   map[uint64]int32
	// empty is the ref of the empty-support vector, or -1. Any present vertex
	// dominates it, so only presence changes flip it: it has no rows, and
	// Finish adds its owners.
	empty int32
	// slots holds every registered query's dense slot; queries maps a slot
	// back to its owner and owned to the refs it registered. The key set of
	// slots is the candidate universe AffectedQueries prunes.
	slots   map[core.QueryID]int32
	queries []core.QueryID
	owned   [][]int32
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
	// ranges and tally serve AffectedQueriesInto's flip test.
	ranges []Range
	tally  npv.Tally
}

// New returns an empty, unsealed index.
func New() *Index {
	return &Index{
		cols:   make(map[npv.Dim]*column),
		caps:   make(map[npv.Dim]int32),
		byHash: make(map[uint64]int32),
		empty:  -1,
		slots:  make(map[core.QueryID]int32),
	}
}

// Register gives q, which must be new, the slot its caller issued and
// recycles (core.Verdicts), before q's vectors are added. Add registers a
// query nobody registered itself, in a new slot.
func (ix *Index) Register(q core.QueryID, slot int32) {
	for int(slot) >= len(ix.queries) {
		ix.queries = append(ix.queries, 0)
		ix.owned = append(ix.owned, nil)
	}
	ix.queries[slot] = q
	ix.slots[q] = slot
}

// Add registers one query vector under k and returns its entry's ref. A
// vector the index holds only gains the owner (k's slot, k.Vertex); a new
// one is fresh: it gets a ref, a freed one first, and one row per support
// dimension, appended before Seal and inserted in order after. Filters
// reject duplicate query IDs, so a key is never registered twice.
func (ix *Index) Add(k Key, p npv.PackedVector) (ref int32, fresh bool) {
	return ix.add(k, p, hashVec(p))
}

// add is Add for p of content hash h.
func (ix *Index) add(k Key, p npv.PackedVector, h uint64) (ref int32, fresh bool) {
	slot, registered := ix.slots[k.Query]
	if !registered {
		slot = int32(len(ix.queries))
		ix.Register(k.Query, slot)
	}
	ref, ok := ix.byHash[h]
	if !ok || !ix.entries[ref].Vec.Equal(p) {
		ref, fresh = ix.intern(p, h, !ok), true
	}
	e := &ix.entries[ref]
	e.Owners = append(e.Owners, Owner{Slot: slot, Pos: int32(k.Vertex)})
	if !slices.Contains(ix.owned[slot], ref) {
		ix.owned[slot] = append(ix.owned[slot], ref)
	}
	return ref, fresh
}

// intern issues a ref for p, a vector the index does not hold, names it
// under p's content hash h if mapped, adds its rows and raises the caps
// p's counts exceed.
func (ix *Index) intern(p npv.PackedVector, h uint64, mapped bool) int32 {
	var ref int32
	if n := len(ix.freeRefs); n > 0 {
		ref, ix.freeRefs = ix.freeRefs[n-1], ix.freeRefs[:n-1]
	} else {
		ref = int32(len(ix.entries))
		ix.entries = append(ix.entries, Entry{})
	}
	if mapped {
		ix.byHash[h] = ref
	}
	ix.entries[ref] = Entry{Vec: p, Owners: ix.entries[ref].Owners[:0], hash: h}
	if p.Len() == 0 {
		ix.empty = ref
	}
	for i := 0; i < p.Len(); i++ {
		col := ix.cols[p.Dim(i)]
		if col == nil {
			col = &column{}
			ix.cols[p.Dim(i)] = col
		}
		c, at := p.Count(i), len(col.refs)
		ix.caps[p.Dim(i)] = max(ix.caps[p.Dim(i)], c)
		if ix.sealed {
			at = sort.Search(at, func(k int) bool {
				return col.counts[k] > c || col.counts[k] == c && col.refs[k] > ref
			})
		}
		col.counts = slices.Insert(col.counts, at, c)
		col.sigs = slices.Insert(col.sigs, at, p.Sig())
		col.refs = slices.Insert(col.refs, at, ref)
		if ix.sealed {
			col.reindex()
		}
	}
	return ref
}

// hashVec is an FNV-1a content hash over p's (dimension, count) entries.
func hashVec(p npv.PackedVector) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < p.Len(); i++ {
		h = (h ^ uint64(p.Dim(i))) * prime
		h = (h ^ uint64(uint32(p.Count(i)))) * prime
	}
	return h
}

// RemoveQuery drops q's owners and reports whether q was registered. Its
// slot may be registered again. An entry whose last owner leaves is freed:
// its rows leave their columns, columns left empty are deleted, and its
// ref waits to be reissued. The caps stay where they are.
func (ix *Index) RemoveQuery(q core.QueryID) bool {
	slot, ok := ix.slots[q]
	if !ok {
		return false
	}
	delete(ix.slots, q)
	for _, ref := range ix.owned[slot] {
		e := &ix.entries[ref]
		e.Owners = slices.DeleteFunc(e.Owners, func(o Owner) bool { return o.Slot == slot })
		if len(e.Owners) == 0 {
			ix.release(ref)
		}
	}
	ix.owned[slot] = ix.owned[slot][:0]
	return true
}

// release frees ref: its rows and its hash mapping go, and the caps stay.
func (ix *Index) release(ref int32) {
	e := &ix.entries[ref]
	for i := 0; i < e.Vec.Len(); i++ {
		d := e.Vec.Dim(i)
		col := ix.cols[d]
		if len(col.refs) == 1 {
			delete(ix.cols, d)
			continue
		}
		at := slices.Index(col.refs, ref)
		col.counts = slices.Delete(col.counts, at, at+1)
		col.sigs = slices.Delete(col.sigs, at, at+1)
		col.refs = slices.Delete(col.refs, at, at+1)
		if ix.sealed {
			col.reindex()
		}
	}
	if ix.empty == ref {
		ix.empty = -1
	}
	if head, ok := ix.byHash[e.hash]; ok && head == ref {
		delete(ix.byHash, e.hash)
	}
	ix.freeRefs = append(ix.freeRefs, ref)
}

// Seal sorts the build-phase columns and marks the index readable; later
// calls are no-ops, so filters may call it at every evaluation entry
// point. Refs are unique within a column, so the (count, ref) order is
// total and sealed column order does not depend on map iteration.
func (ix *Index) Seal() {
	if ix.sealed {
		return
	}
	ix.sealed = true
	for _, col := range ix.cols {
		sort.Sort(col)
		col.reindex()
	}
}

// QueryCount reports the number of registered queries.
func (ix *Index) QueryCount() int { return len(ix.slots) }

// PostingCount reports the total number of column rows: one per distinct
// vector and support dimension.
func (ix *Index) PostingCount() int {
	n := 0
	for _, col := range ix.cols {
		n += len(col.refs)
	}
	return n
}

// Refs reports how many refs have been issued, live or free.
func (ix *Index) Refs() int { return len(ix.entries) }

// Entry returns ref's entry. It is owned by the index: callers must not
// mutate it, and must not retain it across a mutation.
func (ix *Index) Entry(ref int32) *Entry { return &ix.entries[ref] }

// Cap returns dimension d's high-water count: the largest count any vector
// registered since New has had in d (0 if none). It is at least every
// registered vector's count in d and never falls, so a stream store may
// seal its counts capped at it (npv.NewCappedStore) and a removal needs no
// reseal. Cap reads immutable state, so concurrent calls between mutations
// are race-free.
func (ix *Index) Cap(d npv.Dim) int32 { return ix.caps[d] }

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

// AffectedQueriesInto is AffectedQueries collecting into sc: every
// crossed row runs the one-kernel flip test — a drop flips an entry iff
// the old vector dominated it, a rise iff the new one does — and a flip
// collects every owner. The result aliases sc and is valid until the next
// call with sc. Concurrent calls need distinct Scratches.
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
		var moved bool
		sc.ranges, moved = ix.Ranges(dl, sc.ranges[:0])
		presence = presence || moved
		for _, rg := range sc.ranges {
			side := dl.New
			if rg.Drop {
				side = dl.Old
			}
			for k, ref := range rg.Refs {
				if e := &ix.entries[ref]; rg.Sigs[k]&^rg.Sig == 0 && sc.tally.Dominates(side, e.Vec) {
					for _, o := range e.Owners {
						sc.Collect(o.Slot)
					}
				}
			}
		}
	}
	sc.tally.Flush()
	return ix.Finish(sc, presence)
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
// owner of the empty-support vector, which any present vertex dominates
// (the stream may have gained its first vertex or lost its last). The set
// counts as candidates and the other registered queries as pruned.
func (ix *Index) Finish(sc *Scratch, presence bool) []core.QueryID {
	if presence && ix.empty >= 0 {
		for _, o := range ix.entries[ix.empty].Owners {
			sc.Collect(o.Slot)
		}
	}
	slices.Sort(sc.out)
	candidatesTotal.Add(int64(len(sc.out)))
	prunedTotal.Add(int64(len(ix.slots) - len(sc.out)))
	return sc.out
}

// Ranges appends to buf the rows vertex transition dl crosses, one Range
// per move (dl.Moves) that crosses rows, and reports whether dl changed the
// vertex's presence. A move counts an absent dimension zero and an absent
// side as the empty vector, so an appearance rises through (0, new[d]] and
// a retirement drops through (0, old[d]] of each of its dimensions. Every
// entry whose dominance by the vertex flipped is in some range, in the
// direction it flipped: a vector u that old dominated and new does not has
// some d ∈ supp(u) with new[d] < u[d] ≤ old[d], and sig(u) ⊆ sig(old);
// symmetrically for a rise. Ranges allocates only to grow buf.
func (ix *Index) Ranges(dl npv.DirtyDelta, buf []Range) ([]Range, bool) {
	for _, m := range dl.Moves {
		if m.New < m.Old {
			buf = ix.cross(buf, m.Dim, m.New, m.Old, dl.Old.Sig(), true)
		} else {
			buf = ix.cross(buf, m.Dim, m.Old, m.New, dl.New.Sig(), false)
		}
	}
	return buf, dl.HadOld != dl.HasNew
}

// cross appends dimension d's rows with lo < count ≤ hi, if any.
func (ix *Index) cross(buf []Range, d npv.Dim, lo, hi int32, sig uint64, drop bool) []Range {
	col := ix.cols[d]
	if col == nil {
		return buf
	}
	a, b := col.upTo(lo), col.upTo(hi)
	if a == b {
		return buf
	}
	return append(buf, Range{Sigs: col.sigs[a:b], Refs: col.refs[a:b], Sig: sig, Drop: drop})
}
