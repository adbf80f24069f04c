package datagen

import (
	"math"
	"math/rand"
	"testing"

	"nntstream/internal/graph"
	"nntstream/internal/iso"
)

func TestPoissonMean(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, mean := range []float64{1, 5, 10, 50} {
		sum := 0
		n := 3000
		for i := 0; i < n; i++ {
			sum += poisson(r, mean)
		}
		got := float64(sum) / float64(n)
		if math.Abs(got-mean) > mean*0.15+0.5 {
			t.Fatalf("poisson(%v) sample mean = %v", mean, got)
		}
	}
	if poisson(r, 0) != 0 || poisson(r, -3) != 0 {
		t.Fatal("non-positive mean should yield 0")
	}
}

func TestSyntheticShape(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	cfg := SyntheticConfig{
		NumGraphs: 50, NumSeeds: 10, SeedSize: 5, GraphSize: 30,
		VertexLabels: 4, EdgeLabels: 2, OverlapProb: 0.3,
	}
	db := Synthetic(cfg, r)
	if len(db) != 50 {
		t.Fatalf("generated %d graphs; want 50", len(db))
	}
	totalEdges := 0
	for i, g := range db {
		if !g.IsConnected() {
			t.Fatalf("graph %d not connected", i)
		}
		if g.EdgeCount() == 0 {
			t.Fatalf("graph %d empty", i)
		}
		totalEdges += g.EdgeCount()
		g.Vertices(func(_ graph.VertexID, l graph.Label) bool {
			if int(l) >= cfg.VertexLabels {
				t.Fatalf("graph %d has out-of-range vertex label %d", i, l)
			}
			return true
		})
		for _, e := range g.Edges() {
			if int(e.Label) >= cfg.EdgeLabels {
				t.Fatalf("graph %d has out-of-range edge label %d", i, e.Label)
			}
		}
	}
	avg := float64(totalEdges) / 50
	if avg < cfg.GraphSize*0.8 || avg > cfg.GraphSize*1.8 {
		t.Fatalf("average edges = %v; want near %v", avg, cfg.GraphSize)
	}
}

func TestSyntheticDeterminism(t *testing.T) {
	cfg := SyntheticConfig{
		NumGraphs: 5, NumSeeds: 4, SeedSize: 4, GraphSize: 12,
		VertexLabels: 3, EdgeLabels: 1, OverlapProb: 0.3,
	}
	a := Synthetic(cfg, rand.New(rand.NewSource(7)))
	b := Synthetic(cfg, rand.New(rand.NewSource(7)))
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("graph %d differs across same-seed runs", i)
		}
	}
}

func TestChemicalShape(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	cfg := ChemicalDefaults()
	cfg.NumGraphs = 300
	db := Chemical(cfg, r)
	var atoms, edges, carbons, total int
	for _, g := range db {
		atoms += g.VertexCount()
		edges += g.EdgeCount()
		g.Vertices(func(_ graph.VertexID, l graph.Label) bool {
			total++
			if l == 0 {
				carbons++
			}
			return true
		})
		if g.MaxDegree() > cfg.MaxValence {
			t.Fatalf("valence cap violated: %d", g.MaxDegree())
		}
	}
	avgAtoms := float64(atoms) / float64(len(db))
	avgEdges := float64(edges) / float64(len(db))
	if avgAtoms < 20 || avgAtoms > 30 {
		t.Fatalf("avg atoms = %v; want ≈24.8", avgAtoms)
	}
	if avgEdges < avgAtoms-1 || avgEdges > avgAtoms+4 {
		t.Fatalf("avg edges = %v for avg atoms %v; want ≈ atoms+2", avgEdges, avgAtoms)
	}
	carbonFrac := float64(carbons) / float64(total)
	if carbonFrac < 0.45 || carbonFrac > 0.72 {
		t.Fatalf("carbon fraction = %v; want ≈0.6", carbonFrac)
	}
}

func TestDeriveTemplateGrowsVertices(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	q := Synthetic(SyntheticConfig{
		NumGraphs: 1, NumSeeds: 3, SeedSize: 4, GraphSize: 10,
		VertexLabels: 4, EdgeLabels: 1, OverlapProb: 0.3,
	}, r)[0]
	tpl := DeriveTemplate(q, TemplateDefaults(), 4, 1, r)
	wantV := int(float64(q.VertexCount()) * 1.5)
	if tpl.VertexCount() != wantV {
		t.Fatalf("template has %d vertices; want %d", tpl.VertexCount(), wantV)
	}
	// Template contains the query as a subgraph by construction.
	if !iso.Contains(q, tpl) {
		t.Fatal("template must contain its basic graph")
	}
}

func TestFlipStreamReplaysConsistently(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	q := Synthetic(StreamSyntheticDefaults(), r)[0]
	tpl := DeriveTemplate(q, TemplateDefaults(), 4, 1, r)
	cfg := FlipConfig{AppearProb: 0.2, DisappearProb: 0.15, Timestamps: 40}
	s := FlipStream(tpl, cfg, r)
	if s.Timestamps() != 41 {
		t.Fatalf("Timestamps = %d; want 41", s.Timestamps())
	}
	// Replay is consistent and every snapshot's edges are template edges.
	tplEdges := make(map[graph.Edge]bool)
	for _, e := range tpl.Edges() {
		tplEdges[e] = true
	}
	cur := graph.NewCursor(s)
	for {
		for _, e := range cur.Graph().Edges() {
			if !tplEdges[e] {
				t.Fatalf("t=%d: edge %v not in template", cur.Timestamp(), e)
			}
		}
		if _, ok := cur.Next(); !ok {
			break
		}
	}
	// Churn per timestamp is modest (temporal locality), but nonzero on
	// average.
	totalOps := 0
	for _, cs := range s.Changes {
		totalOps += len(cs)
	}
	if totalOps == 0 {
		t.Fatal("flip stream produced no changes")
	}
	avgOps := float64(totalOps) / float64(len(s.Changes))
	if avgOps > float64(tpl.EdgeCount()) {
		t.Fatalf("churn %v exceeds potential edge count %d", avgOps, tpl.EdgeCount())
	}
}

func TestSyntheticStreamsWorkload(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	flip := SparseFlipDefaults()
	flip.Timestamps = 10
	cfg := DefaultStreamWorkload(flip)
	cfg.Gen.NumGraphs = 5
	w := SyntheticStreams(cfg, r)
	if len(w.Basics) != 5 || len(w.Queries) != 5 || len(w.Streams) != 5 {
		t.Fatalf("workload sizes: %d basics, %d queries, %d streams",
			len(w.Basics), len(w.Queries), len(w.Streams))
	}
	for i, s := range w.Streams {
		if s.Timestamps() != 11 {
			t.Fatalf("stream %d has %d timestamps", i, s.Timestamps())
		}
	}
	for i, q := range w.Queries {
		if q.EdgeCount() < cfg.QueryMinEdges || q.EdgeCount() > cfg.QueryMaxEdges {
			t.Fatalf("query %d has %d edges; want within [%d,%d]",
				i, q.EdgeCount(), cfg.QueryMinEdges, cfg.QueryMaxEdges)
		}
		// Each monitored pattern comes from its basic graph.
		if !iso.Contains(q, w.Basics[i]) {
			t.Fatalf("query %d not contained in its basic graph", i)
		}
	}
}

func TestProximityShape(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	cfg := ProximityDefaults()
	cfg.Timestamps = 30
	series := Proximity(cfg, r)
	if len(series) != 30 {
		t.Fatalf("series length = %d", len(series))
	}
	nonEmpty := 0
	for _, g := range series {
		if g.EdgeCount() > 0 {
			nonEmpty++
		}
		if g.VertexCount() > cfg.Devices {
			t.Fatalf("more vertices than devices: %d", g.VertexCount())
		}
	}
	if nonEmpty < 25 {
		t.Fatalf("too many empty snapshots: %d/30 non-empty", nonEmpty)
	}
	// Temporal locality: consecutive snapshots share most edges.
	shared, total := 0, 0
	for i := 1; i < len(series); i++ {
		cur := make(map[graph.Edge]bool)
		for _, e := range series[i].Edges() {
			cur[e] = true
		}
		for _, e := range series[i-1].Edges() {
			total++
			if cur[e] {
				shared++
			}
		}
	}
	if total > 0 && float64(shared)/float64(total) < 0.5 {
		t.Fatalf("persistence too low: %d/%d edges survive a step", shared, total)
	}
}

func TestProximityStreamsAndQueries(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	cfg := ProximityDefaults()
	cfg.Timestamps = 20
	streams := ProximityStreams(cfg, 3, r)
	if len(streams) != 3 {
		t.Fatalf("streams = %d", len(streams))
	}
	for i, s := range streams {
		if s.Timestamps() != 20 {
			t.Fatalf("stream %d timestamps = %d", i, s.Timestamps())
		}
	}
	series := Proximity(cfg, rand.New(rand.NewSource(8)))
	queries := ProximityQueries(series, 5, 2, 5, r)
	if len(queries) != 5 {
		t.Fatalf("queries = %d", len(queries))
	}
	for i, q := range queries {
		if q.EdgeCount() < 1 || !q.IsConnected() {
			t.Fatalf("query %d malformed: %v", i, q)
		}
	}
}

func TestQuerySetSizes(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	db := Synthetic(SyntheticConfig{
		NumGraphs: 30, NumSeeds: 5, SeedSize: 5, GraphSize: 25,
		VertexLabels: 4, EdgeLabels: 1, OverlapProb: 0.3,
	}, r)
	qs := QuerySet(db, 20, 8, r)
	if len(qs) != 20 {
		t.Fatalf("QuerySet returned %d queries", len(qs))
	}
	for i, q := range qs {
		if q.EdgeCount() != 8 {
			t.Fatalf("query %d has %d edges; want 8", i, q.EdgeCount())
		}
		if !q.IsConnected() {
			t.Fatalf("query %d not connected", i)
		}
	}
}

// TestQueriesAreSubgraphs: every extracted query embeds in its source
// database (spot check via a fresh extraction against a single graph).
func TestQueriesAreSubgraphs(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	g := Synthetic(SyntheticConfig{
		NumGraphs: 1, NumSeeds: 5, SeedSize: 5, GraphSize: 30,
		VertexLabels: 4, EdgeLabels: 2, OverlapProb: 0.3,
	}, r)[0]
	for i := 0; i < 20; i++ {
		q := RandomConnectedSubgraph(g, 2+r.Intn(8), r)
		if !iso.Contains(q, g) {
			t.Fatalf("extraction %d is not a subgraph", i)
		}
	}
}

// TestOverlapQuerySetSharesCores: every query is a connected subgraph of
// its core's source graph with the requested edge count, and the queries
// of one core share its edges.
func TestOverlapQuerySetSharesCores(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	db := Synthetic(SyntheticConfig{
		NumGraphs: 3, NumSeeds: 5, SeedSize: 5, GraphSize: 30,
		VertexLabels: 4, EdgeLabels: 2, OverlapProb: 0.3,
	}, r)
	const cores, perCore, edges = 5, 4, 8
	qs := OverlapQuerySet(db, cores, perCore, edges, 0.5, r)
	if len(qs) != cores*perCore {
		t.Fatalf("OverlapQuerySet returned %d queries; want %d", len(qs), cores*perCore)
	}
	for i, q := range qs {
		if q.EdgeCount() != edges || !q.IsConnected() || !iso.Contains(q, db[i/perCore%len(db)]) {
			t.Fatalf("query %d: %d edges, connected=%v; want a connected %d-edge subgraph of graph %d",
				i, q.EdgeCount(), q.IsConnected(), edges, i/perCore%len(db))
		}
		shared := 0
		for _, e := range qs[i-i%perCore].Edges() {
			if q.HasEdge(e.U, e.V) {
				shared++
			}
		}
		if shared < edges/2 {
			t.Fatalf("query %d shares %d edges with its core's first query; want at least %d", i, shared, edges/2)
		}
	}
}
