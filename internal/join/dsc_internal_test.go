package join

import (
	"slices"
	"testing"

	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/npv"
)

// TestDSCPositionCrossing exercises the positional-delta update directly:
// a stream vertex whose dimension count crosses query entries must gain and
// lose exactly those entries' dominance contributions.
func TestDSCPositionCrossing(t *testing.T) {
	f := NewDSC(1)
	// Query: center A with two B leaves → its center vector has count 2 in
	// the single dimension (1, A-0->B).
	q := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1, 2: 1},
		[][3]int{{0, 1, 0}, {0, 2, 0}})
	if err := f.AddQuery(0, q); err != nil {
		t.Fatal(err)
	}
	// Stream: center A with ONE B leaf — count 1 < 2: not dominated.
	g := buildGraph(t, map[graph.VertexID]graph.Label{10: 0, 11: 1},
		[][3]int{{10, 11, 0}})
	if err := f.AddStream(0, g); err != nil {
		t.Fatal(err)
	}
	if got := f.Candidates(); len(got) != 0 {
		t.Fatalf("premature candidate: %v", got)
	}
	// Add a second B leaf: the stream center's count crosses the query
	// entry (value 2) — the pair must appear. (Leaves are dominated by
	// leaves.)
	if err := f.Apply(0, graph.ChangeSet{graph.InsertOp(10, 0, 12, 1, 0)}); err != nil {
		t.Fatal(err)
	}
	got := f.Candidates()
	if len(got) != 1 || got[0] != (core.Pair{Stream: 0, Query: 0}) {
		t.Fatalf("Candidates = %v; want the pair", got)
	}
	// Remove it again: the position must cross back down.
	if err := f.Apply(0, graph.ChangeSet{graph.DeleteOp(10, 12)}); err != nil {
		t.Fatal(err)
	}
	if got := f.Candidates(); len(got) != 0 {
		t.Fatalf("stale candidate after crossing down: %v", got)
	}
}

// TestDSCVertexRetirementDrainsCounters: deleting a stream vertex must
// remove its dominance contributions entirely — no dominant counter and no
// cover survives it.
func TestDSCVertexRetirementDrainsCounters(t *testing.T) {
	f := NewDSC(1)
	q := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1}, [][3]int{{0, 1, 0}})
	if err := f.AddQuery(0, q); err != nil {
		t.Fatal(err)
	}
	g := buildGraph(t, map[graph.VertexID]graph.Label{10: 0, 11: 1}, [][3]int{{10, 11, 0}})
	if err := f.AddStream(0, g); err != nil {
		t.Fatal(err)
	}
	if got := f.Candidates(); len(got) != 1 {
		t.Fatalf("Candidates = %v; want the pair", got)
	}
	// Deleting the only edge retires both vertices.
	if err := f.Apply(0, graph.ChangeSet{graph.DeleteOp(10, 11)}); err != nil {
		t.Fatal(err)
	}
	if got := f.Candidates(); len(got) != 0 {
		t.Fatalf("Candidates = %v; want none after retirement", got)
	}
	assertDSCDrained(t, "after retirement", f.streams[0])
}

// assertDSCDrained fails unless the stream keeps no dominant counter and
// no entry is covered.
func assertDSCDrained(t *testing.T, at string, s *vecJoinStream) {
	t.Helper()
	ds := s.vecStream.(*dscStream)
	if len(ds.dom) != 0 || slices.ContainsFunc(ds.cover, func(n int32) bool { return n != 0 }) {
		t.Fatalf("%s: stream %d: counters not drained: dom=%v cover=%v", at, s.id, ds.dom, ds.cover)
	}
}

// checkDSCCounters recounts, on every stream, each live entry's dominant
// counters and cover from the sealed vectors, and requires a freed entry to
// hold neither.
func checkDSCCounters(t *testing.T, j *vecJoin, at string) {
	t.Helper()
	for sid, s := range j.streams {
		ds := s.vecStream.(*dscStream)
		for k, n := range ds.dom {
			if e := j.ix.Entry(int32(uint32(k))); n <= 0 || len(e.Owners) == 0 {
				t.Fatalf("%s: stream %d vertex %d: counter %d for entry %d of %d owners", at, sid, int32(k>>32), n, int32(uint32(k)), len(e.Owners))
			}
		}
		for ref := int32(0); ref < int32(j.ix.Refs()); ref++ {
			e := j.ix.Entry(ref)
			var cover int32
			if len(e.Owners) > 0 {
				ds.store.PackedVectors(func(v graph.VertexID, p npv.PackedVector) bool {
					var n int32
					for i := 0; i < e.Vec.Len(); i++ {
						if p.Get(e.Vec.Dim(i)) >= e.Vec.Count(i) {
							n++
						}
					}
					if got := ds.dom[domKey(v, ref)]; got != n {
						t.Fatalf("%s: stream %d vertex %d: entry %d counter %d; recount %d", at, sid, v, ref, got, n)
					}
					if n > 0 && n == int32(e.Vec.Len()) {
						cover++
					}
					return true
				})
			}
			if ds.cover[ref] != cover {
				t.Fatalf("%s: stream %d entry %d (%d owners): cover %d; recount %d", at, sid, ref, len(e.Owners), ds.cover[ref], cover)
			}
		}
	}
}

// TestSkylineMaxRefutation checks the per-dimension max shortcut: a query
// vector exceeding the stream's max in one dimension is refuted without a
// member scan (observable as a pruned pair).
func TestSkylineMaxRefutation(t *testing.T) {
	f := NewSkyline(1)
	// Query center has THREE B leaves; stream max per dimension is 2.
	q := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1, 2: 1, 3: 1},
		[][3]int{{0, 1, 0}, {0, 2, 0}, {0, 3, 0}})
	if err := f.AddQuery(0, q); err != nil {
		t.Fatal(err)
	}
	g := buildGraph(t, map[graph.VertexID]graph.Label{10: 0, 11: 1, 12: 1},
		[][3]int{{10, 11, 0}, {10, 12, 0}})
	if err := f.AddStream(0, g); err != nil {
		t.Fatal(err)
	}
	if got := f.Candidates(); len(got) != 0 {
		t.Fatalf("Candidates = %v; want none (3 > max 2)", got)
	}
	// Third leaf arrives: max rises to 3 and the pair passes.
	if err := f.Apply(0, graph.ChangeSet{graph.InsertOp(10, 0, 13, 1, 0)}); err != nil {
		t.Fatal(err)
	}
	if got := f.Candidates(); len(got) != 1 {
		t.Fatalf("Candidates = %v; want the pair", got)
	}
}

// TestDSCCandidatesAllocatesOnce: a read copies the patched answer, one
// allocation whatever the number of candidate pairs.
func TestDSCCandidatesAllocatesOnce(t *testing.T) {
	q := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1}, [][3]int{{0, 1, 0}})
	g := buildGraph(t, map[graph.VertexID]graph.Label{10: 0, 11: 1}, [][3]int{{10, 11, 0}})
	for _, pairs := range []int{10, 200} {
		f := NewDSC(1)
		for qid := 0; qid < pairs/2; qid++ {
			if err := f.AddQuery(core.QueryID(qid), q); err != nil {
				t.Fatal(err)
			}
		}
		for sid := 0; sid < 2; sid++ {
			if err := f.AddStream(core.StreamID(sid), g); err != nil {
				t.Fatal(err)
			}
		}
		if got := len(f.Candidates()); got != pairs {
			t.Fatalf("%d candidates; want %d", got, pairs)
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = f.Candidates() }); allocs != 1 {
			t.Fatalf("Candidates at %d pairs: %v allocations; want 1", pairs, allocs)
		}
	}
}
