package graphgrep

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/iso"
)

func buildGraph(t *testing.T, vlabels map[graph.VertexID]graph.Label, edges [][3]int) *graph.Graph {
	t.Helper()
	g := graph.New()
	for v, l := range vlabels {
		if err := g.AddVertex(v, l); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range edges {
		if err := g.AddEdge(graph.VertexID(e[0]), graph.VertexID(e[1]), graph.Label(e[2])); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestComputeSingleEdge(t *testing.T) {
	g := buildGraph(t, map[graph.VertexID]graph.Label{0: 1, 1: 2}, [][3]int{{0, 1, 7}})
	fp := Compute(g, 4)
	// Paths: [1], [2], [1,7,2], [2,7,1] → 4 keys, each count 1.
	if len(fp) != 4 {
		t.Fatalf("fingerprint has %d keys; want 4: %v", len(fp), fp)
	}
	if fp[pathKey([]graph.Label{1, 7, 2})] != 1 {
		t.Fatal("missing path 1-7-2")
	}
}

func TestComputeCountsMultiplicity(t *testing.T) {
	// Star with two identical leaves: path A→B occurs twice.
	g := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1, 2: 1},
		[][3]int{{0, 1, 5}, {0, 2, 5}})
	fp := Compute(g, 1)
	if got := fp[pathKey([]graph.Label{0, 5, 1})]; got != 2 {
		t.Fatalf("A→B count = %d; want 2", got)
	}
	if got := fp[pathKey([]graph.Label{1})]; got != 2 {
		t.Fatalf("vertex-label-1 count = %d; want 2", got)
	}
}

func TestComputeVertexSimple(t *testing.T) {
	// Triangle: with maxLen 3, vertex-simple paths cannot return to the
	// start, so the longest paths have 2 edges.
	g := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1, 2: 2},
		[][3]int{{0, 1, 0}, {1, 2, 0}, {2, 0, 0}})
	fp := Compute(g, 3)
	for k := range fp {
		if len(k) > 2*5 { // 3 vertices + 2 edges = 5 labels max
			t.Fatalf("path longer than 2 edges found: %d bytes", len(k))
		}
	}
}

func TestCovers(t *testing.T) {
	q := Fingerprint{"a": 1, "b": 2}
	g1 := Fingerprint{"a": 1, "b": 2, "c": 9}
	g2 := Fingerprint{"a": 1, "b": 1, "c": 9}
	g3 := Fingerprint{"b": 2}
	if !Covers(g1, q) {
		t.Fatal("g1 should cover q")
	}
	if Covers(g2, q) {
		t.Fatal("g2 undercounts b")
	}
	if Covers(g3, q) {
		t.Fatal("g3 misses a")
	}
	if !Covers(q, q) {
		t.Fatal("cover is reflexive")
	}
}

func TestFilterLifecycle(t *testing.T) {
	f := New(4)
	q := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1}, [][3]int{{0, 1, 0}})
	if err := f.AddQuery(0, q); err != nil {
		t.Fatal(err)
	}
	counted(t, f)
	if err := f.AddQuery(0, q); err == nil {
		t.Fatal("duplicate query accepted")
	}
	g := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 2}, [][3]int{{0, 1, 0}})
	if err := f.AddStream(0, g); err != nil {
		t.Fatal(err)
	}
	counted(t, f)
	if err := f.AddStream(0, g); err == nil {
		t.Fatal("duplicate stream accepted")
	}
	if got := counted(t, f); len(got) != 0 {
		t.Fatalf("no candidates expected, got %v", got)
	}
	// Attach a B-labeled vertex: now the A-B query path exists.
	if err := f.Apply(0, graph.ChangeSet{graph.InsertOp(0, 0, 5, 1, 0)}); err != nil {
		t.Fatal(err)
	}
	got := counted(t, f)
	if len(got) != 1 || got[0] != (core.Pair{Stream: 0, Query: 0}) {
		t.Fatalf("Candidates = %v", got)
	}
	if err := f.Apply(9, nil); err == nil {
		t.Fatal("unknown stream accepted")
	}
	counted(t, f)
	if err := f.RemoveQuery(0); err != nil {
		t.Fatal(err)
	}
	if got := counted(t, f); len(got) != 0 {
		t.Fatalf("Candidates after removing the query = %v", got)
	}
	if err := f.RemoveQuery(0); err == nil {
		t.Fatal("unknown query removed")
	}
}

// counted returns f's candidates after checking that CandidateCount counts
// them.
func counted(t *testing.T, f *Filter) []core.Pair {
	t.Helper()
	got := f.Candidates()
	if n := f.CandidateCount(); n != len(got) {
		t.Fatalf("CandidateCount = %d; Candidates lists %d: %v", n, len(got), got)
	}
	return got
}

// TestQuickNoFalseNegatives: if Q ⊆ G then GraphGrep keeps the pair.
func TestQuickNoFalseNegatives(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomConnected(r, 5+r.Intn(7), 3)
		q := randomSub(r, g)
		if q.VertexCount() == 0 {
			return true
		}
		if !iso.Contains(q, g) {
			return true
		}
		return Covers(Compute(g, 4), Compute(q, 4))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func randomConnected(r *rand.Rand, n, labels int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		_ = g.AddVertex(graph.VertexID(i), graph.Label(r.Intn(labels)))
	}
	for i := 1; i < n; i++ {
		_ = g.AddEdge(graph.VertexID(i), graph.VertexID(r.Intn(i)), graph.Label(r.Intn(2)))
	}
	for k := 0; k < n/2; k++ {
		i, j := r.Intn(n), r.Intn(n)
		if i != j {
			_ = g.AddEdge(graph.VertexID(i), graph.VertexID(j), graph.Label(r.Intn(2)))
		}
	}
	return g
}

func randomSub(r *rand.Rand, g *graph.Graph) *graph.Graph {
	ids := g.VertexIDs()
	start := ids[r.Intn(len(ids))]
	sub := graph.New()
	_ = sub.AddVertex(start, g.MustVertexLabel(start))
	want := 1 + r.Intn(g.EdgeCount())
	frontier := []graph.VertexID{start}
	for sub.EdgeCount() < want && len(frontier) > 0 {
		v := frontier[r.Intn(len(frontier))]
		es := g.NeighborsSorted(v)
		added := false
		for _, idx := range r.Perm(len(es)) {
			e := es[idx]
			if sub.HasEdge(e.U, e.V) {
				continue
			}
			_ = sub.AddVertex(e.V, g.MustVertexLabel(e.V))
			_ = sub.AddEdge(e.U, e.V, e.Label)
			frontier = append(frontier, e.V)
			added = true
			break
		}
		if !added {
			for i, u := range frontier {
				if u == v {
					frontier = append(frontier[:i], frontier[i+1:]...)
					break
				}
			}
		}
	}
	return sub
}
