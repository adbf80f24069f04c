package join

import (
	"math/rand"
	"reflect"
	"testing"

	"nntstream/internal/core"
	"nntstream/internal/graph"
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

// allFilters returns fresh instances of every NPV-equivalent filter.
func npvFilters(depth int) []core.Filter {
	return []core.Filter{NewNL(depth), NewDSC(depth), NewSkyline(depth)}
}

// workload is a small deterministic scenario: two queries, two streams.
func workload(t *testing.T, f core.Filter) {
	t.Helper()
	// Q0: A-B edge. Q1: triangle A-B-C.
	q0 := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1}, [][3]int{{0, 1, 0}})
	q1 := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1, 2: 2},
		[][3]int{{0, 1, 0}, {1, 2, 0}, {2, 0, 0}})
	if err := f.AddQuery(0, q0); err != nil {
		t.Fatal(err)
	}
	if err := f.AddQuery(1, q1); err != nil {
		t.Fatal(err)
	}
	// G0 starts as A-B path; G1 starts as the triangle.
	g0 := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1}, [][3]int{{0, 1, 0}})
	g1 := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1, 2: 2},
		[][3]int{{0, 1, 0}, {1, 2, 0}, {2, 0, 0}})
	if err := f.AddStream(0, g0); err != nil {
		t.Fatal(err)
	}
	if err := f.AddStream(1, g1); err != nil {
		t.Fatal(err)
	}
}

// TestFiltersInitialCandidates checks the candidates of the workload's
// start graphs, and that an edgeless query is no candidate of a stream
// whose start graph is empty: no stream vertex dominates its vertex.
func TestFiltersInitialCandidates(t *testing.T) {
	edgeless := append(npvFilters(3), NewBranch(3), NewExact())
	for i, f := range append(npvFilters(3), NewBranch(3), NewExact()) {
		t.Run(f.Name(), func(t *testing.T) {
			g := edgeless[i]
			if err := g.AddQuery(0, buildGraph(t, map[graph.VertexID]graph.Label{0: 0}, nil)); err != nil {
				t.Fatal(err)
			}
			if err := g.AddStream(0, graph.New()); err != nil {
				t.Fatal(err)
			}
			if got := g.Candidates(); len(got) != 0 {
				t.Fatalf("edgeless query on an empty stream: Candidates = %v; want none", got)
			}

			workload(t, f)
			got := f.Candidates()
			// Ground truth: Q0 in both streams; Q1 only in G1. NPV filters
			// must report at least these; on graphs this tiny they are
			// exact.
			want := []core.Pair{
				{Stream: 0, Query: 0},
				{Stream: 1, Query: 0},
				{Stream: 1, Query: 1},
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Candidates = %v; want %v", got, want)
			}
		})
	}
}

func TestFiltersTrackDeletion(t *testing.T) {
	for _, f := range append(npvFilters(3), NewBranch(3), NewExact()) {
		t.Run(f.Name(), func(t *testing.T) {
			workload(t, f)
			// Break the triangle in G1: Q1 no longer matches anywhere.
			if err := f.Apply(1, graph.ChangeSet{graph.DeleteOp(2, 0)}); err != nil {
				t.Fatal(err)
			}
			got := f.Candidates()
			want := []core.Pair{
				{Stream: 0, Query: 0},
				{Stream: 1, Query: 0},
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("after delete: Candidates = %v; want %v", got, want)
			}
			// Restore it.
			if err := f.Apply(1, graph.ChangeSet{graph.InsertOp(2, 2, 0, 0, 0)}); err != nil {
				t.Fatal(err)
			}
			got = f.Candidates()
			want = []core.Pair{
				{Stream: 0, Query: 0},
				{Stream: 1, Query: 0},
				{Stream: 1, Query: 1},
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("after restore: Candidates = %v; want %v", got, want)
			}
		})
	}
}

func TestDuplicateRegistrationErrors(t *testing.T) {
	q := buildGraph(t, map[graph.VertexID]graph.Label{0: 0}, nil)
	for _, f := range append(npvFilters(3), NewBranch(3), NewExact()) {
		if err := f.AddQuery(0, q); err != nil {
			t.Fatalf("%s: AddQuery: %v", f.Name(), err)
		}
		if err := f.AddQuery(0, q); err == nil {
			t.Fatalf("%s: duplicate query not rejected", f.Name())
		}
		if err := f.AddStream(0, q); err != nil {
			t.Fatalf("%s: AddStream: %v", f.Name(), err)
		}
		if err := f.AddStream(0, q); err == nil {
			t.Fatalf("%s: duplicate stream not rejected", f.Name())
		}
		if err := f.Apply(99, nil); err == nil {
			t.Fatalf("%s: unknown stream not rejected", f.Name())
		}
	}
}

func TestDSCSealSortsColumns(t *testing.T) {
	// Multiple queries registered before the first stream land in shared
	// per-dimension columns that must be sorted exactly once at seal time;
	// a stream added afterwards must see consistent positions.
	f := NewDSC(2)
	q1 := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1, 2: 1},
		[][3]int{{0, 1, 0}, {0, 2, 0}}) // A with two B neighbors
	q2 := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1}, [][3]int{{0, 1, 0}})
	if err := f.AddQuery(0, q1); err != nil {
		t.Fatal(err)
	}
	if err := f.AddQuery(1, q2); err != nil {
		t.Fatal(err)
	}
	// Stream: A with three B neighbors contains both.
	g := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1, 2: 1, 3: 1},
		[][3]int{{0, 1, 0}, {0, 2, 0}, {0, 3, 0}})
	if err := f.AddStream(0, g); err != nil {
		t.Fatal(err)
	}
	got := f.Candidates()
	if len(got) != 2 {
		t.Fatalf("Candidates = %v; want both queries", got)
	}
}

// randomConnected builds a connected random graph (spanning tree + extras).
func randomConnected(r *rand.Rand, n, labels, elabels int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		_ = g.AddVertex(graph.VertexID(i), graph.Label(r.Intn(labels)))
	}
	for i := 1; i < n; i++ {
		_ = g.AddEdge(graph.VertexID(i), graph.VertexID(r.Intn(i)), graph.Label(r.Intn(elabels)))
	}
	for k := 0; k < n; k++ {
		i, j := r.Intn(n), r.Intn(n)
		if i != j {
			_ = g.AddEdge(graph.VertexID(i), graph.VertexID(j), graph.Label(r.Intn(elabels)))
		}
	}
	return g
}

// randomSub extracts a random connected subgraph.
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
