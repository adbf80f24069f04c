package gindex

import (
	"math/rand"
	"slices"
	"sync"
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

func TestPatternFromCodeRoundTrip(t *testing.T) {
	// Triangle code: (0,1) (1,2) (2,0).
	c := dfscode{
		{fi: 0, ti: 1, fl: 0, el: 5, tl: 1},
		{fi: 1, ti: 2, fl: 1, el: 5, tl: 2},
		{fi: 2, ti: 0, fl: 2, el: 5, tl: 0},
	}
	p := patternFromCode(c)
	if len(p.vlabels) != 3 || p.size() != 3 {
		t.Fatalf("pattern has %d vertices, %d edges", len(p.vlabels), p.size())
	}
	if !p.hasEdge(0, 2) || !p.hasEdge(2, 0) {
		t.Fatal("backward edge missing")
	}
	g := p.toGraph()
	if g.VertexCount() != 3 || g.EdgeCount() != 3 {
		t.Fatalf("toGraph = %v", g)
	}
	// Rightmost path of the triangle code is 0→1→2.
	if len(p.rmpath) != 3 || p.rmpath[0] != 0 || p.rmpath[2] != 2 {
		t.Fatalf("rmpath = %v", p.rmpath)
	}
}

func TestIsMinSingleEdge(t *testing.T) {
	if !isMin(dfscode{{fi: 0, ti: 1, fl: 0, el: 0, tl: 1}}) {
		t.Fatal("ordered single edge should be minimal")
	}
	if isMin(dfscode{{fi: 0, ti: 1, fl: 1, el: 0, tl: 0}}) {
		t.Fatal("reversed single edge should not be minimal")
	}
}

func TestIsMinPath(t *testing.T) {
	// Path with labels 0-1-2: minimal code starts at an end with the
	// smaller triple. Starting (0,1,0,0,1) then (1,2,1,0,2) is minimal.
	minimal := dfscode{
		{fi: 0, ti: 1, fl: 0, el: 0, tl: 1},
		{fi: 1, ti: 2, fl: 1, el: 0, tl: 2},
	}
	if !isMin(minimal) {
		t.Fatal("expected minimal path code")
	}
	// Starting from the middle vertex: (0,1,1,0,0) is not minimal.
	other := dfscode{
		{fi: 0, ti: 1, fl: 1, el: 0, tl: 0},
		{fi: 0, ti: 2, fl: 1, el: 0, tl: 2},
	}
	if isMin(other) {
		t.Fatal("middle-start code should not be minimal")
	}
}

// bruteCountDistinct enumerates all connected subgraphs of g with at most
// maxEdges edges and returns the count of isomorphism classes, using the
// miner's own canonical form computed independently per subgraph. Used to
// cross-check the miner's completeness at support 1 on a single graph.
func bruteDistinctSubgraphs(g *graph.Graph, maxEdges int) map[string]bool {
	edges := g.Edges()
	seen := make(map[string]bool)
	// Grow connected edge sets from every edge.
	var rec func(set []graph.Edge, adjacent map[graph.Edge]bool)
	key := func(set []graph.Edge) string {
		sub := graph.New()
		for _, e := range set {
			_ = sub.AddVertex(e.U, g.MustVertexLabel(e.U))
			_ = sub.AddVertex(e.V, g.MustVertexLabel(e.V))
			_ = sub.AddEdge(e.U, e.V, e.Label)
		}
		return minCodeOf(sub)
	}
	var all func(prefix []graph.Edge, startIdx int)
	_ = rec
	// Simple approach: enumerate all subsets of edges up to maxEdges that
	// form a connected subgraph (graphs in tests are tiny).
	var subsets func(i int, cur []graph.Edge)
	subsets = func(i int, cur []graph.Edge) {
		if len(cur) > 0 {
			sub := graph.New()
			for _, e := range cur {
				_ = sub.AddVertex(e.U, g.MustVertexLabel(e.U))
				_ = sub.AddVertex(e.V, g.MustVertexLabel(e.V))
				_ = sub.AddEdge(e.U, e.V, e.Label)
			}
			if sub.IsConnected() {
				seen[key(cur)] = true
			}
		}
		if i == len(edges) || len(cur) == maxEdges {
			return
		}
		for j := i; j < len(edges); j++ {
			subsets(j+1, append(cur, edges[j]))
		}
	}
	subsets(0, nil)
	_ = all
	return seen
}

// minCodeOf computes the canonical minimum DFS code of a small graph by
// mining it at support 1 with exactly its own size and taking the code of
// the feature isomorphic to it. Implemented directly: enumerate all codes
// via the miner on the single graph; the feature whose size matches and
// whose graph contains g (and vice versa) is g's class.
func minCodeOf(g *graph.Graph) string {
	feats := Mine([]*graph.Graph{g}, MineConfig{MinSup: 1, MaxEdges: g.EdgeCount()})
	for _, f := range feats {
		if f.Graph.EdgeCount() == g.EdgeCount() && f.Graph.VertexCount() == g.VertexCount() {
			if iso.Contains(f.Graph, g) && iso.Contains(g, f.Graph) {
				return f.Code.key()
			}
		}
	}
	panic("gindex test: graph not found among its own features")
}

func TestMineEnumeratesAllSubgraphsOfOneGraph(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		g := graph.New()
		n := 4 + r.Intn(3)
		for i := 0; i < n; i++ {
			_ = g.AddVertex(graph.VertexID(i), graph.Label(r.Intn(2)))
		}
		for i := 1; i < n; i++ {
			_ = g.AddEdge(graph.VertexID(i), graph.VertexID(r.Intn(i)), 0)
		}
		if r.Intn(2) == 0 && n > 2 {
			_ = g.AddEdge(0, graph.VertexID(n-1), 0)
		}
		maxE := 3
		feats := Mine([]*graph.Graph{g}, MineConfig{MinSup: 1, MaxEdges: maxE})
		got := make(map[string]bool)
		for _, f := range feats {
			got[f.Code.key()] = true
		}
		want := bruteDistinctSubgraphs(g, maxE)
		if len(got) != len(want) {
			t.Fatalf("trial %d: miner found %d classes; brute force %d", trial, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("trial %d: miner missed a subgraph class", trial)
			}
		}
		// Each mined feature is genuinely contained in g exactly once per
		// isomorphism class (codes are canonical, hence unique).
		for _, f := range feats {
			if !iso.Contains(f.Graph, g) {
				t.Fatalf("trial %d: feature not contained in its source graph", trial)
			}
		}
	}
}

func TestMineSupportCounting(t *testing.T) {
	// DB: two graphs with an A-B edge, one without.
	g1 := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1}, [][3]int{{0, 1, 0}})
	g2 := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1, 2: 1}, [][3]int{{0, 1, 0}, {0, 2, 0}})
	g3 := buildGraph(t, map[graph.VertexID]graph.Label{0: 2, 1: 2}, [][3]int{{0, 1, 0}})
	feats := Mine([]*graph.Graph{g1, g2, g3}, MineConfig{MinSup: 2, MaxEdges: 2})
	// Only the A-B edge has support ≥ 2.
	if len(feats) != 1 {
		t.Fatalf("features = %d; want 1", len(feats))
	}
	f := feats[0]
	if len(f.Postings) != 2 || f.Postings[0] != 0 || f.Postings[1] != 1 {
		t.Fatalf("postings = %v; want [0 1]", f.Postings)
	}
}

func TestMineCaps(t *testing.T) {
	g := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 0, 2: 0, 3: 0},
		[][3]int{{0, 1, 0}, {1, 2, 0}, {2, 3, 0}, {3, 0, 0}})
	feats := Mine([]*graph.Graph{g}, MineConfig{MinSup: 1, MaxEdges: 4, MaxFeatures: 2})
	if len(feats) != 2 {
		t.Fatalf("MaxFeatures cap ignored: %d features", len(feats))
	}
}

func TestIndexCandidates(t *testing.T) {
	// DB of three labeled paths; query A-B-C should keep only graphs
	// containing that path.
	abc := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1, 2: 2},
		[][3]int{{0, 1, 0}, {1, 2, 0}})
	abd := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1, 2: 3},
		[][3]int{{0, 1, 0}, {1, 2, 0}})
	cb := buildGraph(t, map[graph.VertexID]graph.Label{0: 2, 1: 1}, [][3]int{{0, 1, 0}})
	db := []*graph.Graph{abc, abd, cb}
	idx := Build(db, MineConfig{MinSup: 1, MaxEdges: 3})
	q := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1, 2: 2},
		[][3]int{{0, 1, 0}, {1, 2, 0}})
	got := idx.Candidates(q, len(db))
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("Candidates = %v; want [0]", got)
	}
	// A query containing no indexed feature cannot be pruned at all:
	// gIndex's index only carries positive evidence (which graphs contain
	// a feature), so an alien query keeps every graph as a candidate.
	q2 := buildGraph(t, map[graph.VertexID]graph.Label{0: 9, 1: 9}, [][3]int{{0, 1, 0}})
	if got := idx.Candidates(q2, len(db)); len(got) != len(db) {
		t.Fatalf("Candidates for alien query = %v; want all %d graphs", got, len(db))
	}
}

func TestIndexNoMatchedFeaturesKeepsAll(t *testing.T) {
	// With minSup 2 nothing is frequent in two disjointly-labeled graphs,
	// so a query matches no features and all graphs stay candidates.
	g1 := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1}, [][3]int{{0, 1, 0}})
	g2 := buildGraph(t, map[graph.VertexID]graph.Label{0: 2, 1: 3}, [][3]int{{0, 1, 0}})
	idx := Build([]*graph.Graph{g1, g2}, MineConfig{MinSup: 2, MaxEdges: 3})
	if len(idx.Features) != 0 {
		t.Fatalf("unexpected features: %d", len(idx.Features))
	}
	q := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1}, [][3]int{{0, 1, 0}})
	got := idx.Candidates(q, 2)
	if len(got) != 2 {
		t.Fatalf("Candidates = %v; want all", got)
	}
}

// TestQuickGIndexNoFalseNegatives: for random DBs and actual subgraph
// queries, the containing graph always survives the gIndex filter.
func TestQuickGIndexNoFalseNegatives(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var db []*graph.Graph
		for i := 0; i < 4; i++ {
			db = append(db, randomConnected(r, 4+r.Intn(5), 3))
		}
		idx := Build(db, MineConfig{MinSup: 1 + r.Intn(3), MaxEdges: 3})
		target := r.Intn(len(db))
		q := randomSub(r, db[target])
		if q.VertexCount() == 0 {
			return true
		}
		for _, gi := range idx.Candidates(q, len(db)) {
			if gi == target {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestFilterLifecycle(t *testing.T) {
	f := New(Setting2())
	if f.Name() != "gIndex2" {
		t.Fatalf("Name = %s", f.Name())
	}
	q := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1}, [][3]int{{0, 1, 0}})
	if err := f.AddQuery(0, q); err != nil {
		t.Fatal(err)
	}
	counted(t, f)
	if err := f.AddQuery(0, q); err == nil {
		t.Fatal("duplicate query accepted")
	}
	// Stream 0 contains the query edge A-B; stream 1 does not. The A-B
	// feature gets mined from stream 0, so gIndex prunes stream 1.
	g0 := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1}, [][3]int{{0, 1, 0}})
	g1 := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 2}, [][3]int{{0, 1, 0}})
	if err := f.AddStream(0, g0); err != nil {
		t.Fatal(err)
	}
	counted(t, f)
	if err := f.AddStream(0, g0); err == nil {
		t.Fatal("duplicate stream accepted")
	}
	if err := f.AddStream(1, g1); err != nil {
		t.Fatal(err)
	}
	got := counted(t, f)
	if len(got) != 1 || got[0] != (core.Pair{Stream: 0, Query: 0}) {
		t.Fatalf("Candidates = %v; want only (G0,Q0)", got)
	}
	// Remove stream 0's A-B edge by deleting it (the vertices retire);
	// re-mining drops the feature, and with no matched features gIndex can
	// no longer prune either stream.
	if err := f.Apply(0, graph.ChangeSet{graph.DeleteOp(0, 1)}); err != nil {
		t.Fatal(err)
	}
	// Concurrent readers race to re-mine; each must see the rebuilt answer.
	var wg sync.WaitGroup
	counts := make([]int, 4)
	for i := range counts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				counts[i] = f.CandidateCount()
			} else {
				counts[i] = len(f.Candidates())
			}
		}()
	}
	wg.Wait()
	got = counted(t, f)
	if slices.ContainsFunc(counts, func(n int) bool { return n != len(got) }) {
		t.Fatalf("concurrent readers counted %v; want %d each", counts, len(got))
	}
	if len(got) != 2 {
		t.Fatalf("Candidates after delete = %v; want both pairs (no pruning evidence left)", got)
	}
	if err := f.Apply(5, nil); err == nil {
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

// counted returns f's candidates after checking that CandidateCount, asked
// first so that it is the read that re-mines, counts them.
func counted(t *testing.T, f *Filter) []core.Pair {
	t.Helper()
	n := f.CandidateCount()
	got := f.Candidates()
	if n != len(got) {
		t.Fatalf("CandidateCount = %d; Candidates lists %d: %v", n, len(got), got)
	}
	return got
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
