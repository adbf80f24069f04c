package npv

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nntstream/internal/graph"
	"nntstream/internal/iso"
	"nntstream/internal/nnt"
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

func TestVectorAddAndGet(t *testing.T) {
	v := make(Vector)
	d := NewDim(1, 0, 0, 1)
	v.Add(d, 1)
	v.Add(d, 2)
	if v.Get(d) != 3 {
		t.Fatalf("Get = %d; want 3", v.Get(d))
	}
	v.Add(d, -3)
	if _, ok := v[d]; ok {
		t.Fatal("zero entry should be deleted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative count should panic")
		}
	}()
	v.Add(d, -1)
}

func TestDominates(t *testing.T) {
	d1 := NewDim(1, 0, 0, 1)
	d2 := NewDim(1, 0, 0, 2)
	u := Vector{d1: 1, d2: 2}
	v := Vector{d1: 2, d2: 2}
	w := Vector{d1: 2, d2: 1}
	x := Vector{d1: 5}
	if !v.Dominates(u) {
		t.Fatal("v should dominate u")
	}
	if !u.Dominates(u) {
		t.Fatal("dominance is reflexive")
	}
	if w.Dominates(u) {
		t.Fatal("w has smaller d2; should not dominate u")
	}
	if x.Dominates(u) {
		t.Fatal("x misses d2 entirely; should not dominate u")
	}
	if !v.Dominates(Vector{}) {
		t.Fatal("everything dominates the empty vector")
	}
}

func TestVectorCloneEqualL1(t *testing.T) {
	d1 := NewDim(1, 0, 0, 1)
	u := Vector{d1: 3}
	c := u.Clone()
	if !u.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Add(d1, 1)
	if u.Equal(c) {
		t.Fatal("mutating clone affected equality")
	}
	if u.L1() != 3 || c.L1() != 4 {
		t.Fatalf("L1 = %d,%d", u.L1(), c.L1())
	}
	if len(u.String()) == 0 || len(u.Support()) != 1 {
		t.Fatal("String/Support broken")
	}
}

func TestProjectTreeLevelsAndLabels(t *testing.T) {
	// Path A(0)-B(1)-C(2), depth 2. NNT(0): 0→1→2.
	g := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1, 2: 2},
		[][3]int{{0, 1, 7}, {1, 2, 8}})
	f := nnt.NewForest(g, 2)
	v := ProjectTree(f.Tree(0))
	want := Vector{
		NewDim(1, 0, 7, 1): 1,
		NewDim(2, 1, 8, 2): 1,
	}
	if !v.Equal(want) {
		t.Fatalf("ProjectTree = %v; want %v", v, want)
	}
	// NNT(1): 1→{0, 2}: two level-1 dims.
	v1 := ProjectTree(f.Tree(1))
	want1 := Vector{
		NewDim(1, 1, 7, 0): 1,
		NewDim(1, 1, 8, 2): 1,
	}
	if !v1.Equal(want1) {
		t.Fatalf("ProjectTree(1) = %v; want %v", v1, want1)
	}
}

func TestProjectCountsMultiplicity(t *testing.T) {
	// Star: center A with three B leaves, same edge label → one dimension
	// with count 3.
	g := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1, 2: 1, 3: 1},
		[][3]int{{0, 1, 0}, {0, 2, 0}, {0, 3, 0}})
	v := ProjectGraph(g, 2)[0]
	d := NewDim(1, 0, 0, 1)
	if v.Get(d) != 3 {
		t.Fatalf("count = %d; want 3", v.Get(d))
	}
	// Level 2: from each leaf, the path continues to the other two leaves
	// via the center? No — paths go 0→leaf and stop (leaf has only the edge
	// back, which is used). So no level-2 dims.
	if len(v) != 1 {
		t.Fatalf("vector = %v; want single dimension", v)
	}
}

func TestSpaceTracksForestIncrementally(t *testing.T) {
	g := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1, 2: 2},
		[][3]int{{0, 1, 0}, {1, 2, 0}})
	s := NewSpace()
	f := nnt.NewForest(g, 3, s)
	// After construction the space matches a scratch projection.
	assertSpaceMatchesScratch(t, s, f)
	if s.Len() != 3 {
		t.Fatalf("Len = %d; want 3", s.Len())
	}
	s.TakeDirty() // reset

	// Apply a few ops and re-verify.
	ops := []graph.ChangeOp{
		graph.InsertOp(2, 2, 3, 0, 1),
		graph.InsertOp(0, 0, 2, 2, 0),
		graph.DeleteOp(0, 1),
		graph.DeleteOp(1, 2), // retires vertex 1
	}
	for i, op := range ops {
		if err := f.Apply(op); err != nil {
			t.Fatalf("op %d: %v", i, op)
		}
		assertSpaceMatchesScratch(t, s, f)
		dirty := s.TakeDirty()
		if len(dirty) == 0 {
			t.Fatalf("op %d: no dirty vertices reported", i)
		}
	}
	if s.Vector(1) != nil {
		t.Fatal("retired vertex still has a vector")
	}
}

func TestTakeDirtyResets(t *testing.T) {
	s := NewSpace()
	f := nnt.NewForest(buildGraph(t, map[graph.VertexID]graph.Label{0: 0}, nil), 2, s)
	_ = f
	if len(s.TakeDirty()) != 1 {
		t.Fatal("initial build should mark vertex dirty")
	}
	if s.TakeDirty() != nil {
		t.Fatal("second TakeDirty should be empty")
	}
}

func assertSpaceMatchesScratch(t *testing.T, s *Space, f *nnt.Forest) {
	t.Helper()
	scratch := ProjectForest(f)
	if len(scratch) != s.Len() {
		t.Fatalf("space has %d vectors; scratch has %d", s.Len(), len(scratch))
	}
	for v, want := range scratch {
		got := s.Vector(v)
		if got == nil || !got.Equal(want) {
			t.Fatalf("vector of %d: incremental %v vs scratch %v", v, got, want)
		}
	}
}

// TestQuickIncrementalSpaceMatchesScratch runs random op sequences and
// verifies the observer-maintained vectors always equal a scratch
// projection.
func TestQuickIncrementalSpaceMatchesScratch(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 7
		g := graph.New()
		for i := 0; i < n; i++ {
			_ = g.AddVertex(graph.VertexID(i), graph.Label(r.Intn(3)))
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < 0.3 {
					_ = g.AddEdge(graph.VertexID(i), graph.VertexID(j), graph.Label(r.Intn(2)))
				}
			}
		}
		s := NewSpace()
		fo := nnt.NewForest(g, 3, s)
		for step := 0; step < 25; step++ {
			u := graph.VertexID(r.Intn(n))
			v := graph.VertexID(r.Intn(n))
			if u == v {
				continue
			}
			var op graph.ChangeOp
			if fo.Graph().HasEdge(u, v) {
				op = graph.DeleteOp(u, v)
			} else {
				ul, ok := fo.Graph().VertexLabel(u)
				if !ok {
					ul = graph.Label(r.Intn(3))
				}
				vl, ok := fo.Graph().VertexLabel(v)
				if !ok {
					vl = graph.Label(r.Intn(3))
				}
				op = graph.InsertOp(u, ul, v, vl, graph.Label(r.Intn(2)))
			}
			if err := fo.Apply(op); err != nil {
				return false
			}
			scratch := ProjectForest(fo)
			if len(scratch) != s.Len() {
				return false
			}
			for vid, want := range scratch {
				got := s.Vector(vid)
				if got == nil || !got.Equal(want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLemma42NoFalseNegatives checks the paper's Lemma 4.2: when Q is
// subgraph-isomorphic to G, every query vertex's NPV is dominated by some
// stream vertex's NPV.
func TestQuickLemma42NoFalseNegatives(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomConnected(r, 5+r.Intn(8), 3)
		q := randomSub(r, g)
		if q.VertexCount() == 0 || !iso.Contains(q, g) {
			return true
		}
		qv := ProjectGraph(q, 3)
		gv := ProjectGraph(g, 3)
		for _, uvec := range qv {
			dominated := false
			for _, vvec := range gv {
				if vvec.Dominates(uvec) {
					dominated = true
					break
				}
			}
			if !dominated {
				return false
			}
		}
		return true
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
