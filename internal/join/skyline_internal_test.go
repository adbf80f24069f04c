package join

import (
	"testing"

	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/npv"
)

// TestSkylineDominatedEmptyQueryVector covers the len(u)==0 branch of
// Skyline.dominated: an isolated query vertex projects to the empty vector,
// which is dominated by any stream vertex — so the pair is a candidate iff
// the stream has at least one vertex.
func TestSkylineDominatedEmptyQueryVector(t *testing.T) {
	f := NewSkyline(DefaultDepth)
	q := buildGraph(t, map[graph.VertexID]graph.Label{0: 5}, nil)
	if err := f.AddQuery(0, q); err != nil {
		t.Fatal(err)
	}

	empty := graph.New()
	if err := f.AddStream(0, empty); err != nil {
		t.Fatal(err)
	}
	nonEmpty := buildGraph(t, map[graph.VertexID]graph.Label{0: 9}, nil)
	if err := f.AddStream(1, nonEmpty); err != nil {
		t.Fatal(err)
	}

	got := f.Candidates()
	want := []core.Pair{{Stream: 1, Query: 0}}
	if len(got) != 1 || got[0] != want[0] {
		t.Fatalf("Candidates = %v; want %v (empty stream cannot dominate, any vertex dominates the empty query vector)", got, want)
	}

	// Direct unit check of the probe.
	ss := f.streams[0].vecStream.(*skyStream)
	empty0 := npv.Pack(npv.Vector{})
	if ok, _ := dominated(ss, empty0); ok {
		t.Fatal("empty stream should not dominate the empty vector")
	}
	if ok, _ := dominated(f.streams[1].vecStream.(*skyStream), empty0); !ok {
		t.Fatal("non-empty stream should dominate the empty vector")
	}
}

// TestSkylineRetiredVertex covers vertex retirement: deleting the last edge
// of a vertex removes it from the graph, its NPV from the space, and its
// entries from the per-dimension statistics, flipping verdicts that depended
// on it.
func TestSkylineRetiredVertex(t *testing.T) {
	f := NewSkyline(DefaultDepth)
	// Query A-B (labels 0-1).
	q := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1}, [][3]int{{0, 1, 0}})
	if err := f.AddQuery(0, q); err != nil {
		t.Fatal(err)
	}
	// Stream: A-B plus an unrelated C-C edge that survives the deletion.
	g := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1, 2: 2, 3: 2},
		[][3]int{{0, 1, 0}, {2, 3, 0}})
	if err := f.AddStream(0, g); err != nil {
		t.Fatal(err)
	}
	if got := f.Candidates(); len(got) != 1 {
		t.Fatalf("Candidates before deletion = %v; want 1 pair", got)
	}
	ss := f.streams[0].vecStream.(*skyStream)
	dimsBefore := len(ss.dims)
	if dimsBefore == 0 || len(ss.prev) != 4 {
		t.Fatalf("stream stats before deletion: dims=%d prev=%d", dimsBefore, len(ss.prev))
	}

	// Deleting edge 0-1 retires both endpoints (degree drops to zero).
	if err := f.Apply(0, graph.ChangeSet{graph.DeleteOp(0, 1)}); err != nil {
		t.Fatal(err)
	}
	if got := f.Candidates(); len(got) != 0 {
		t.Fatalf("Candidates after retirement = %v; want none", got)
	}
	if len(ss.prev) != 2 {
		t.Fatalf("prev after retirement = %d vertices; want 2 (retired vectors must be deregistered)", len(ss.prev))
	}
	for v := range ss.prev {
		if v != 2 && v != 3 {
			t.Fatalf("retired vertex %d still registered", v)
		}
	}
	// Dimensions fed only by the retired vertices must be gone, and every
	// remaining dimension's membership must reference live vertices only.
	for d, stat := range ss.dims {
		if len(stat.members) == 0 {
			t.Fatalf("dimension %v kept with no members", d)
		}
		for v := range stat.members {
			if v != 2 && v != 3 {
				t.Fatalf("dimension %v still lists retired vertex %d", d, v)
			}
		}
	}

	// The query vector is now refuted via the per-dimension max fast path:
	// its dimensions have no members at all.
	u := f.queries[0][0]
	if ok, _ := dominated(ss, u); ok {
		t.Fatal("retired vertices must not dominate the query vector")
	}

	// Re-inserting the edge restores the pair (no stale max/member state).
	if err := f.Apply(0, graph.ChangeSet{graph.InsertOp(0, 0, 1, 1, 0)}); err != nil {
		t.Fatal(err)
	}
	if got := f.Candidates(); len(got) != 1 {
		t.Fatalf("Candidates after re-insertion = %v; want 1 pair", got)
	}
}

// TestSkylineMaxRecomputedOnRetreat checks the max-recomputation branch of
// reconcile: when the vertex holding a dimension's max shrinks, the max must
// drop to the runner-up, not stay stale.
func TestSkylineMaxRecomputedOnRetreat(t *testing.T) {
	f := NewSkyline(1)
	// Stream: star center 0 with two leaves (dim count 2), and an
	// independent edge 3-4 contributing count 1 on the same dimension
	// (labels chosen to collide: all vertices label 7, edges label 0).
	g := buildGraph(t, map[graph.VertexID]graph.Label{0: 7, 1: 7, 2: 7, 3: 7, 4: 7},
		[][3]int{{0, 1, 0}, {0, 2, 0}, {3, 4, 0}})
	if err := f.AddStream(0, g); err != nil {
		t.Fatal(err)
	}
	ss := f.streams[0].vecStream.(*skyStream)
	var d npv.Dim
	var maxBefore int32
	for dim, stat := range ss.dims {
		if stat.max > maxBefore {
			d, maxBefore = dim, stat.max
		}
	}
	if maxBefore != 2 {
		t.Fatalf("max before = %d; want 2 (star center)", maxBefore)
	}
	// Delete one star edge: center's count drops to 1.
	if err := f.Apply(0, graph.ChangeSet{graph.DeleteOp(0, 2)}); err != nil {
		t.Fatal(err)
	}
	if got := ss.dims[d].max; got != 1 {
		t.Fatalf("max after retreat = %d; want 1", got)
	}
}
