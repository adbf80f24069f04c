package qindex

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/npv"
)

// FuzzCrossDirections pins the three crossing facts the Skyline join
// builds on, for byte-derived query vectors and vertex transitions: no
// entry of a drop range is dominated by the new side, none of a rise range
// by the old side, and the entries that flip — in a drop range the old side
// dominated, in a rise range the new side dominates — are exactly the
// nonempty vectors whose dominance by the vertex differs between the two
// sides (an absent side dominating nothing), every owner of such an entry
// flipping with it. The walk reports a presence change iff one side is
// absent. When byte 0's high bit is set, query 0 is removed after
// registration and one more vector is registered, so an entry it shared
// keeps its other owners and a freed ref can be reissued.
func FuzzCrossDirections(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 1, 3, 2, 5, 1, 1, 4, 3, 2, 1, 3, 3, 1, 2, 3, 2, 1, 2, 2, 3})
	f.Add([]byte{5, 1, 2, 1, 3, 2, 2, 1, 4, 1, 2, 1, 1, 3, 1, 5, 1, 2})
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 8; i++ {
		b := make([]byte, 8+r.Intn(80))
		r.Read(b)
		f.Add(b)
	}
	// Query 1 shares query 0's first vector; removing query 0 keeps the
	// entry for query 1, then a new vector is registered.
	f.Add([]byte{0x80 | 7, 1, 1, 2, 1, 2, 0, 0, 1, 1, 2, 1, 3, 1, 2, 1, 1, 4, 3, 2, 1, 4, 3, 1, 1, 1, 0})
	// Query 0 alone owns its vectors; removing it frees their refs, and the
	// next vector, a different one in a freed vector's dimension, takes one.
	f.Add([]byte{0x80 | 7, 1, 4, 1, 1, 5, 0, 1, 6, 2, 1, 7, 1, 1, 6, 3, 2, 2, 6, 3, 7, 1, 3, 1, 6, 2, 1, 6, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		nv, churn := 1+int(data[0]%12), data[0]&0x80 != 0
		data = data[1:]
		ix := New()
		vectors := make(map[Key]npv.PackedVector)
		add := func(k Key) {
			var p npv.PackedVector
			p, data = decodeFuzzVec(data)
			ix.Add(k, p)
			vectors[k] = p
		}
		for i := 0; i < nv; i++ {
			add(Key{Query: core.QueryID(i / 3), Vertex: graph.VertexID(i % 3)})
		}
		ix.Seal()
		checkBounds(t, ix, "seal")
		if churn {
			ix.RemoveQuery(0)
			for k := range vectors {
				if k.Query == 0 {
					delete(vectors, k)
				}
			}
			checkBounds(t, ix, "remove")
			add(Key{Query: core.QueryID(nv), Vertex: 0})
			checkBounds(t, ix, "add")
		}
		for v := 0; len(data) > 0 && v < 4; v++ {
			dl := npv.DirtyDelta{Vertex: graph.VertexID(v)}
			kind := data[0] % 4
			data = data[1:]
			if kind == 1 || kind == 3 {
				dl.Old, data = decodeFuzzVec(data)
				dl.HadOld = true
			}
			if kind == 2 || kind == 3 {
				dl.New, data = decodeFuzzVec(data)
				dl.HasNew = true
			}
			dl = withMoves(dl)[0]
			ranges, got := ix.Ranges(dl, nil)
			if got != (dl.HadOld != dl.HasNew) {
				t.Fatalf("delta %+v: presence change %v", dl, got)
			}
			flipped := make(map[Key]bool)
			for _, rg := range ranges {
				for k, ref := range rg.Refs {
					if rg.Sigs[k]&^rg.Sig != 0 {
						continue
					}
					e := ix.Entry(ref)
					before, after := dl.Old.Dominates(e.Vec), dl.New.Dominates(e.Vec)
					if rg.Drop && after || !rg.Drop && before {
						t.Fatalf("delta %+v: entry %d (%v) crossed with drop=%v, but old ≽ u is %v and new ≽ u is %v",
							dl, ref, e.Vec, rg.Drop, before, after)
					}
					if rg.Drop && before || !rg.Drop && after {
						for _, o := range e.Owners {
							flipped[Key{Query: ix.queries[o.Slot], Vertex: graph.VertexID(o.Pos)}] = true
						}
					}
				}
			}
			for k, u := range vectors {
				if u.Len() == 0 {
					continue
				}
				want := (dl.HadOld && dl.Old.Dominates(u)) != (dl.HasNew && dl.New.Dominates(u))
				if flipped[k] != want {
					t.Fatalf("delta %+v: %v (%v) flipped=%v, brute force says %v", dl, k, u, flipped[k], want)
				}
			}
		}
	})
}

// countAtMost returns the number of counts ≤ v, by a scan: the reference
// for a sealed column's crossing bounds.
func countAtMost(counts []int32, v int32) int {
	n := 0
	for _, c := range counts {
		if c <= v {
			n++
		}
	}
	return n
}

// checkBounds asserts that every column of the sealed ix keeps its rows in
// (count, ref) order and an at table that runs from 0 to the smaller of the
// column's largest count and its row count, and that upTo answers each
// crossing bound, inside the table and past it, as a scan of the counts
// does.
func checkBounds(t *testing.T, ix *Index, at string) {
	t.Helper()
	for d, col := range ix.cols {
		if !sort.IsSorted(col) {
			t.Fatalf("%s: column %d rows out of order: counts %v refs %v", at, d, col.counts, col.refs)
		}
		top := col.counts[len(col.counts)-1]
		if want := min(int(top), len(col.counts)) + 1; len(col.at) != want {
			t.Fatalf("%s: column %d: at has %d entries for largest count %d over %d rows; want %d", at, d, len(col.at), top, len(col.counts), want)
		}
		for c := int32(0); c <= top+1; c++ {
			if got, want := col.upTo(c), countAtMost(col.counts, c); got != want {
				t.Fatalf("%s: column %d: %d rows counted ≤ %d; the counts %v have %d", at, d, got, c, col.counts, want)
			}
		}
	}
}

// TestHighCountsKeepTablesSmall: a query whose counts run to the millions,
// as a dense query graph's can, costs each column an at
// table the size of its rows, not of its counts, whether it registers
// before the seal or after, and the crossing bounds past the table come
// out as a scan of the counts says.
func TestHighCountsKeepTablesSmall(t *testing.T) {
	const high = 1 << 22 // a count table over it would take 16 MB a column
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ix := New()
	ix.Add(key(0, 0), vec(1, 3, 2, 1))
	ix.Add(key(1, 0), vec(1, high))
	ix.Seal()
	ix.Add(key(2, 0), vec(1, high/2, 2, high))
	ix.Add(key(3, 0), vec(2, 2))
	ix.RemoveQuery(core.QueryID(0))
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("the registrations allocated %d bytes", grew)
	}
	for d, col := range ix.cols {
		if len(col.at) > len(col.refs)+1 {
			t.Fatalf("column %d: at has %d entries over %d rows", d, len(col.at), len(col.refs))
		}
		for _, c := range []int32{0, 1, 2, 3, high/2 - 1, high / 2, high - 1, high, high + 1} {
			if got, want := col.upTo(c), countAtMost(col.counts, c); got != want {
				t.Fatalf("column %d: %d rows counted ≤ %d; the counts %v have %d", d, got, c, col.counts, want)
			}
		}
	}
}

// TestColumnBoundsTrackRows: over random Add, RemoveQuery and Seal
// sequences, before and after the seal and with shared, freed and reissued
// entries, every sealed column's at table matches a scan of its
// counts after every operation.
func TestColumnBoundsTrackRows(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	for round := 0; round < 40; round++ {
		ix := New()
		var live []core.QueryID
		next := core.QueryID(0)
		for op := 0; op < 60; op++ {
			switch k := r.Intn(8); {
			case k == 0:
				ix.Seal()
			case k <= 2 && len(live) > 0:
				i := r.Intn(len(live))
				ix.RemoveQuery(live[i])
				live = append(live[:i], live[i+1:]...)
			default:
				for i := 0; i < 1+r.Intn(3); i++ {
					v := make(npv.Vector)
					for n := 1 + r.Intn(4); len(v) < n; {
						v[npv.Dim(r.Intn(6))] = int32(1 + r.Intn(9))
					}
					ix.Add(key(int(next), i), npv.Pack(v))
				}
				live = append(live, next)
				next++
			}
			if ix.sealed {
				checkBounds(t, ix, fmt.Sprintf("round %d op %d", round, op))
			}
		}
	}
}

// TestCrossAllocsZero: the crossing walk allocates nothing of its own once
// its range buffer has grown, so a per-step caller pays only for what it
// does with the ranges.
func TestCrossAllocsZero(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	ix := New()
	for q := 0; q < 200; q++ {
		ix.Add(key(q, 0), randomVec(r))
	}
	ix.Seal()
	deltas := withMoves(
		npv.DirtyDelta{Vertex: 0, Old: vec(1, 1, 2, 6, 3, 2), New: vec(1, 6, 2, 1, 4, 3), HadOld: true, HasNew: true},
		npv.DirtyDelta{Vertex: 1, New: vec(1, 6, 2, 6, 3, 6, 4, 6, 5, 6), HasNew: true},
		npv.DirtyDelta{Vertex: 2, Old: vec(1, 6, 2, 6, 3, 6, 4, 6, 5, 6), HadOld: true},
	)
	var buf []Range
	rows := 0
	walk := func() {
		for _, dl := range deltas {
			buf, _ = ix.Ranges(dl, buf[:0])
			for _, rg := range buf {
				rows += len(rg.Refs)
			}
		}
	}
	walk()
	allocs := testing.AllocsPerRun(50, walk)
	if rows == 0 {
		t.Fatal("the walk crossed no row")
	}
	if allocs != 0 {
		t.Fatalf("crossing walk allocates %.1f per call", allocs)
	}
}

// benchIndex builds a sealed index of 400 queries, each of one to four
// vectors over a pool of 300 dimensions, and returns it with the vectors.
func benchIndex() (*Index, [][]npv.PackedVector) {
	const queries, dims = 400, 300
	r := rand.New(rand.NewSource(12))
	ix := New()
	vecs := make([][]npv.PackedVector, queries)
	for q := range vecs {
		for i := 0; i < 1+r.Intn(4); i++ {
			v := make(npv.Vector)
			for n := 10 + r.Intn(20); len(v) < n; {
				v[npv.Dim(r.Intn(dims))] = int32(1 + r.Intn(6))
			}
			vecs[q] = append(vecs[q], npv.Pack(v))
			ix.Add(key(q, i), vecs[q][i])
		}
	}
	ix.Seal()
	return ix, vecs
}

// BenchmarkIndexAddQuery adds one query's vectors to a sealed index of 400
// queries (benchIndex) after removing it off the clock, so every op adds to
// the same index size.
func BenchmarkIndexAddQuery(b *testing.B) {
	ix, vecs := benchIndex()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		q := n % len(vecs)
		b.StopTimer()
		if !ix.RemoveQuery(core.QueryID(q)) {
			b.Fatal("query not registered")
		}
		b.StartTimer()
		for i, p := range vecs[q] {
			ix.Add(key(q, i), p)
		}
	}
}

// BenchmarkIndexRemoveQuery removes one query from a sealed index of 400
// (benchIndex) and re-adds it off the clock, so every op removes from the
// same index size.
func BenchmarkIndexRemoveQuery(b *testing.B) {
	ix, vecs := benchIndex()
	const queries = 400
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		q := n % queries
		if !ix.RemoveQuery(core.QueryID(q)) {
			b.Fatal("query not registered")
		}
		b.StopTimer()
		for i, p := range vecs[q] {
			ix.Add(key(q, i), p)
		}
		b.StartTimer()
	}
}
