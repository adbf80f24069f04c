package qindex

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/npv"
)

// vec builds a packed vector from (dim, count) pairs.
func vec(pairs ...int) npv.PackedVector {
	v := make(npv.Vector, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		v[npv.Dim(pairs[i])] = int32(pairs[i+1])
	}
	return npv.Pack(v)
}

func key(q, v int) Key {
	return Key{Query: core.QueryID(q), Vertex: graph.VertexID(v)}
}

// rows reads dimension d's rows of the sealed ix, counts ascending, and
// their refs through Ranges: a vertex appearing with the largest count in d
// crosses every row there.
func rows(ix *Index, d npv.Dim) (counts, refs []int32) {
	ranges, _ := ix.Ranges(withMoves(npv.DirtyDelta{New: vec(int(d), math.MaxInt32), HasNew: true})[0], nil)
	for _, rg := range ranges {
		for _, ref := range rg.Refs {
			counts = append(counts, ix.Entry(ref).Vec.Get(d))
			refs = append(refs, ref)
		}
	}
	return counts, refs
}

func TestIndexLifecycle(t *testing.T) {
	ix := New()
	if ix.sealed {
		t.Fatal("fresh index reports sealed")
	}
	ix.Add(key(0, 0), vec(1, 3, 2, 1))
	ix.Add(key(0, 1), vec(1, 5))
	ix.Add(key(1, 0), vec(2, 2))
	ix.Add(key(2, 0), vec()) // empty support
	if got := ix.QueryCount(); got != 3 {
		t.Fatalf("QueryCount = %d; want 3", got)
	}
	if got := ix.PostingCount(); got != 4 {
		t.Fatalf("PostingCount = %d; want 4", got)
	}
	if got := len(ix.cols); got != 2 {
		t.Fatalf("%d columns; want 2", got)
	}
	ix.Seal()
	ix.Seal() // idempotent
	if !ix.sealed {
		t.Fatal("Seal did not seal the index")
	}

	// Column 1 sorted ascending by count: (0,0)@3, (0,1)@5.
	counts, _ := rows(ix, npv.Dim(1))
	if !slices.Equal(counts, []int32{3, 5}) {
		t.Fatalf("column 1 counts = %v", counts)
	}
	if col := ix.cols[npv.Dim(1)]; col.upTo(2) != 0 || col.upTo(3) != 1 || col.upTo(9) != 2 {
		t.Fatalf("crossing bounds over %v misplaced: at %v", counts, col.at)
	}
	if c2, _ := rows(ix, npv.Dim(2)); !slices.Equal(c2, []int32{1, 2}) {
		t.Fatalf("column 2 counts = %v", c2)
	}
	if c7, _ := rows(ix, npv.Dim(7)); c7 != nil {
		t.Fatalf("unused column 7 has rows %v", c7)
	}

	// Post-seal add inserts at the sorted position.
	ref, fresh := ix.Add(key(3, 0), vec(1, 4))
	counts, refs := rows(ix, npv.Dim(1))
	if !fresh || len(counts) != 3 || counts[1] != 4 || refs[1] != ref {
		t.Fatalf("post-seal insert misplaced: counts %v refs %v, ref %d", counts, refs, ref)
	}

	// Removal tears down every row and the empty-support entry.
	if !ix.RemoveQuery(core.QueryID(0)) {
		t.Fatal("RemoveQuery(0) = false")
	}
	if ix.RemoveQuery(core.QueryID(0)) {
		t.Fatal("double RemoveQuery(0) = true")
	}
	if got := ix.PostingCount(); got != 2 {
		t.Fatalf("PostingCount after removal = %d; want 2", got)
	}
	if !ix.RemoveQuery(core.QueryID(2)) {
		t.Fatal("RemoveQuery(2) = false")
	}
	if ix.empty != -1 {
		t.Fatalf("empty-support entry %d outlived its owner", ix.empty)
	}
	deltas := withMoves(npv.DirtyDelta{Vertex: 0, New: vec(1, 9, 2, 9), HasNew: true})
	got := ix.AffectedQueries(deltas)
	want := []core.QueryID{1, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AffectedQueries after removals = %v; want %v", got, want)
	}
}

func TestAffectedQueriesPanicsUnsealed(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AffectedQueries on an unsealed index did not panic")
		}
	}()
	ix := New()
	ix.Add(key(0, 0), vec(1, 1))
	ix.AffectedQueries([]npv.DirtyDelta{{Vertex: 0, New: vec(1, 1), HasNew: true}})
}

func TestAffectedQueriesCases(t *testing.T) {
	build := func() *Index {
		ix := New()
		ix.Add(key(0, 0), vec(1, 3))       // flips when dim 1 crosses 3
		ix.Add(key(1, 0), vec(1, 3, 2, 1)) // needs dims 1 and 2
		ix.Add(key(2, 0), vec(5, 1))       // unrelated dimension
		ix.Add(key(3, 0), vec())           // empty support: presence only
		ix.Seal()
		return ix
	}
	for _, tc := range []struct {
		name   string
		deltas []npv.DirtyDelta
		want   []core.QueryID
	}{
		{
			// Count moved 2→4 in dim 1: crosses count 3 of queries 0 and 1.
			// No presence change, so the empty-support query 3 is spared; the
			// dim-5 query 2 is never reached.
			name:   "count crossing",
			deltas: []npv.DirtyDelta{{Vertex: 0, Old: vec(1, 2, 2, 1), New: vec(1, 4, 2, 1), HadOld: true, HasNew: true}},
			want:   []core.QueryID{0, 1},
		},
		{
			// Count moved 4→5: no posting in (4,5], nothing affected.
			name:   "no crossing",
			deltas: []npv.DirtyDelta{{Vertex: 0, Old: vec(1, 4, 2, 1), New: vec(1, 5, 2, 1), HadOld: true, HasNew: true}},
			want:   []core.QueryID{},
		},
		{
			// Vertex appeared reaching dim 1 only: query 0 could be newly
			// dominated; query 1 needs dim 2 too (signature prunes it);
			// presence pulls in the empty-support query 3.
			name:   "vertex added",
			deltas: []npv.DirtyDelta{{Vertex: 0, New: vec(1, 9), HasNew: true}},
			want:   []core.QueryID{0, 3},
		},
		{
			// Vertex retired: the dominance its last sealed vector could have
			// held is withdrawn, and presence pulls in query 3.
			name:   "vertex retired",
			deltas: []npv.DirtyDelta{{Vertex: 0, Old: vec(1, 9, 2, 9), HadOld: true}},
			want:   []core.QueryID{0, 1, 3},
		},
		{
			// Added and retired within one timestamp: no sealed vector ever
			// existed on either side, nothing to re-evaluate.
			name:   "ghost vertex",
			deltas: []npv.DirtyDelta{{Vertex: 0}},
			want:   []core.QueryID{},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := build().AffectedQueries(withMoves(tc.deltas...))
			if got == nil {
				got = []core.QueryID{}
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("AffectedQueries = %v; want %v", got, tc.want)
			}
		})
	}
}

func TestStatsCounters(t *testing.T) {
	c0, p0 := Counters()
	ix := New()
	ix.Add(key(0, 0), vec(1, 3))
	ix.Add(key(1, 0), vec(9, 1))
	ix.Seal()
	got := ix.AffectedQueries(withMoves(
		npv.DirtyDelta{Vertex: 0, Old: vec(1, 1), New: vec(1, 5), HadOld: true, HasNew: true},
	))
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("AffectedQueries = %v", got)
	}
	c1, p1 := Counters()
	if c1-c0 != 1 || p1-p0 != 1 {
		t.Fatalf("counters moved by (%d, %d); want (1, 1)", c1-c0, p1-p0)
	}
}

// randomVec draws a vector over a small dimension pool so supports overlap
// often — the regime where candidate generation has to be careful.
func randomVec(r *rand.Rand) npv.PackedVector {
	v := make(npv.Vector)
	for _, d := range []npv.Dim{1, 2, 3, 4, 5} {
		if r.Intn(2) == 0 {
			v[d] = int32(1 + r.Intn(6))
		}
	}
	return npv.Pack(v)
}

// randomDelta draws one vertex transition: changed, added, retired, or
// ghost (added and retired within the timestamp).
func randomDelta(r *rand.Rand, v graph.VertexID) npv.DirtyDelta {
	dl := npv.DirtyDelta{Vertex: v}
	if r.Intn(4) > 0 {
		dl.Old, dl.HadOld = randomVec(r), true
	}
	if r.Intn(4) > 0 {
		dl.New, dl.HasNew = randomVec(r), true
	}
	return withMoves(dl)[0]
}

// withMoves fills each delta's Moves from its Old and New
// through npv.Diff, as a sealer does, and returns the deltas.
func withMoves(deltas ...npv.DirtyDelta) []npv.DirtyDelta {
	for i := range deltas {
		dl := &deltas[i]
		dl.Moves, _ = npv.Diff(nil, dl.Old, dl.New)
	}
	return deltas
}

// bruteAffected is the ground truth AffectedQueries must cover: the queries
// owning a vector whose dominance by some dirty vertex differs between the
// two sides of its seal transition. Verdicts of a filter are monotone
// functions of exactly these per-(vertex, vector) dominance bits, so a
// query outside this set cannot have changed verdict.
func bruteAffected(vectors map[Key]npv.PackedVector, deltas []npv.DirtyDelta) []core.QueryID {
	set := make(map[core.QueryID]struct{})
	for k, u := range vectors {
		for _, dl := range deltas {
			before := dl.HadOld && dl.Old.Dominates(u)
			after := dl.HasNew && dl.New.Dominates(u)
			if before != after {
				set[k.Query] = struct{}{}
				break
			}
		}
	}
	out := make([]core.QueryID, 0, len(set))
	for q := range set {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestAffectedQueriesSupersetQuickcheck is the soundness property: across
// random query sets and random seal transitions, the candidate set always
// contains every query whose dominance bits actually flipped — no false
// negatives, ever. The contract allows false positives (the filters
// re-evaluate candidates exactly), but the implementation settles every
// range hit with the packed kernel and is exact at dominance-bit
// granularity, so the test pins full equality: weakening the per-posting
// flip test would silently re-inflate candidate sets and the sweep bench.
//
// Post-seal churn interleaves RemoveQuery and Add so new queries take
// recycled slots, one Scratch serves every call of a seed (its stamp is
// forced through one wraparound), and each result must also equal a
// fresh-scratch call.
func TestAffectedQueriesSupersetQuickcheck(t *testing.T) {
	reused := 0
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(1000 + seed))
		ix := New()
		vectors := make(map[Key]npv.PackedVector)
		nq := 0
		add := func() {
			for vtx := 0; vtx < 1+r.Intn(3); vtx++ {
				k := key(nq, vtx)
				p := randomVec(r)
				vectors[k] = p
				ix.Add(k, p)
			}
		}
		for n := 1 + r.Intn(8); nq < n; nq++ {
			add()
		}
		ix.Seal()
		var sc Scratch
		for trial := 0; trial < 20; trial++ {
			if trial%4 == 3 {
				// Dynamic churn: remove a query, then register a new one,
				// which takes the freed slot.
				victim := core.QueryID(r.Intn(nq))
				if ix.RemoveQuery(victim) {
					for k := range vectors {
						if k.Query == victim {
							delete(vectors, k)
						}
					}
					slots := len(ix.queries)
					add()
					nq++
					if len(ix.queries) == slots {
						reused++
					}
				}
			}
			if trial == 10 {
				sc.stamp = math.MaxUint32 // the next call wraps
			}
			var deltas []npv.DirtyDelta
			for v := 0; v < 1+r.Intn(4); v++ {
				deltas = append(deltas, randomDelta(r, graph.VertexID(v)))
			}
			got := ix.AffectedQueriesInto(&sc, deltas)
			if trial == 10 && sc.stamp != 1 {
				t.Fatalf("seed=%d: stamp %d after wraparound; want 1", seed, sc.stamp)
			}
			if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
				t.Fatalf("seed=%d trial=%d: candidates not sorted: %v", seed, trial, got)
			}
			if brute := bruteAffected(vectors, deltas); !slices.Equal(got, brute) {
				t.Fatalf("seed=%d trial=%d: candidates %v != affected %v (deltas %+v)",
					seed, trial, got, brute, deltas)
			}
			if fresh := ix.AffectedQueries(deltas); !slices.Equal(got, fresh) {
				t.Fatalf("seed=%d trial=%d: reused scratch %v != fresh scratch %v", seed, trial, got, fresh)
			}
		}
		if len(ix.queries) != len(ix.slots)+len(ix.free) {
			t.Fatalf("seed=%d: %d slots for %d live and %d free", seed, len(ix.queries), len(ix.slots), len(ix.free))
		}
	}
	if reused == 0 {
		t.Fatal("no registration reused a freed slot")
	}
}

// TestSharedEntries: queries registering equal vectors share one entry and
// its rows; removing one owner keeps the entry for the other, removing the
// last frees it, and a freed ref is reissued — fresh — to the next new
// vector, with rows of that vector only.
func TestSharedEntries(t *testing.T) {
	ix := New()
	a, fa := ix.Add(key(0, 0), vec(1, 3, 2, 1))
	b, fb := ix.Add(key(1, 2), vec(1, 3, 2, 1))
	c, fc := ix.Add(key(1, 0), vec(2, 2))
	if a != b || !fa || fb || a == c || !fc {
		t.Fatalf("refs %d (fresh %v), %d (fresh %v), %d (fresh %v); want the first two shared", a, fa, b, fb, c, fc)
	}
	if got := ix.PostingCount(); got != 3 {
		t.Fatalf("PostingCount = %d; want 3 (one row per distinct vector and dimension)", got)
	}
	if got := ix.Entry(a).Owners; !slices.Equal(got, []Owner{{Slot: 0, Pos: 0}, {Slot: 1, Pos: 2}}) {
		t.Fatalf("owners = %v", got)
	}
	ix.Seal()
	// Both owners flip together: one kernel call, both queries.
	dl := withMoves(npv.DirtyDelta{Vertex: 0, New: vec(1, 3, 2, 1), HasNew: true})
	if got := ix.AffectedQueries(dl); !slices.Equal(got, []core.QueryID{0, 1}) {
		t.Fatalf("AffectedQueries = %v; want both owners", got)
	}

	ix.RemoveQuery(0)
	if got := ix.Entry(a).Owners; !slices.Equal(got, []Owner{{Slot: 1, Pos: 2}}) || ix.PostingCount() != 3 {
		t.Fatalf("after removing one owner: owners %v, %d rows", got, ix.PostingCount())
	}
	if got := ix.AffectedQueries(dl); !slices.Equal(got, []core.QueryID{1}) {
		t.Fatalf("AffectedQueries = %v; want the remaining owner", got)
	}
	ix.RemoveQuery(1)
	if ix.PostingCount() != 0 || len(ix.cols) != 0 || len(ix.byHash) != 0 {
		t.Fatalf("after removing both: %d rows, %d columns, %d hashes", ix.PostingCount(), len(ix.cols), len(ix.byHash))
	}
	d, fd := ix.Add(key(2, 0), vec(5, 1))
	if !fd || (d != a && d != c) || ix.Refs() != 2 {
		t.Fatalf("new vector took ref %d (fresh %v) of %d; want a recycled one", d, fd, ix.Refs())
	}
	if counts, refs := rows(ix, npv.Dim(5)); !slices.Equal(counts, []int32{1}) || !slices.Equal(refs, []int32{d}) || ix.PostingCount() != 1 {
		t.Fatalf("reissued ref's rows: counts %v refs %v, %d rows", counts, refs, ix.PostingCount())
	}
}

// TestHashCollision: a vector whose content hash collides with a held,
// different vector's gets an entry of its own, which is simply not shared,
// and either can be removed without disturbing the other.
func TestHashCollision(t *testing.T) {
	ix := New()
	vecs := []npv.PackedVector{vec(1, 1), vec(2, 1)}
	for i, p := range vecs {
		if ref, fresh := ix.add(key(i, 0), p, 7); ref != int32(i) || !fresh {
			t.Fatalf("vector %d: ref %d fresh %v", i, ref, fresh)
		}
	}
	if ref, fresh := ix.add(key(2, 0), vecs[0], 7); ref != 0 || fresh {
		t.Fatalf("vector 0 again: ref %d fresh %v; want it shared", ref, fresh)
	}
	ix.RemoveQuery(1)
	if ref := ix.byHash[7]; ref != 0 || ix.PostingCount() != 1 {
		t.Fatalf("removing the unmapped vector moved the mapping to %d, %d rows left", ref, ix.PostingCount())
	}
	ix.RemoveQuery(0)
	ix.RemoveQuery(2)
	if len(ix.byHash) != 0 || ix.PostingCount() != 0 {
		t.Fatalf("%d hash entries, %d rows left", len(ix.byHash), ix.PostingCount())
	}
}
