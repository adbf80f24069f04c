package datagen

import (
	"math/rand"

	"nntstream/internal/graph"
)

// RandomConnectedSubgraph extracts a connected subgraph of g with up to
// wantEdges edges by growing an edge set from a random start vertex. The
// result has at least one vertex (the start) and at most wantEdges edges;
// fewer when g's component is exhausted first. The original vertex IDs and
// labels are preserved.
func RandomConnectedSubgraph(g *graph.Graph, wantEdges int, r *rand.Rand) *graph.Graph {
	sub := graph.New()
	ids := g.VertexIDs()
	if len(ids) == 0 {
		return sub
	}
	start := ids[r.Intn(len(ids))]
	_ = sub.AddVertex(start, g.MustVertexLabel(start))
	grow(g, sub, []graph.VertexID{start}, wantEdges, r)
	return sub
}

// grow adds edges of g to its subgraph sub, each incident to a frontier
// vertex, until sub has wantEdges edges or the frontier is exhausted.
func grow(g, sub *graph.Graph, frontier []graph.VertexID, wantEdges int, r *rand.Rand) {
	for sub.EdgeCount() < wantEdges && len(frontier) > 0 {
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
}

// OverlapQuerySet draws cores × perCore connected queries of up to edges
// edges, the cores round-robin over the graphs: every query of one core
// shares a connected core of round(overlap × edges) edges verbatim and
// regrows the rest independently, so queries of one core share structure
// — and, projected, many of their vectors.
func OverlapQuerySet(graphs []*graph.Graph, cores, perCore, edges int, overlap float64, r *rand.Rand) []*graph.Graph {
	coreEdges := int(overlap*float64(edges) + 0.5)
	out := make([]*graph.Graph, 0, cores*perCore)
	for c := 0; c < cores; c++ {
		g := graphs[c%len(graphs)]
		core := RandomConnectedSubgraph(g, coreEdges, r)
		for i := 0; i < perCore; i++ {
			q := core.Clone()
			grow(g, q, q.VertexIDs(), edges, r)
			out = append(out, q)
		}
	}
	return out
}

// QuerySet extracts the paper's Q_m workload: num connected subgraphs with
// exactly m edges, drawn from random database graphs. Graphs too small to
// yield m edges are skipped; if the database cannot produce the requested
// sizes the function keeps the largest extractable subgraphs rather than
// looping forever (bounded attempts per query).
func QuerySet(db []*graph.Graph, num, m int, r *rand.Rand) []*graph.Graph {
	out := make([]*graph.Graph, 0, num)
	const maxAttempts = 50
	for len(out) < num {
		var best *graph.Graph
		for attempt := 0; attempt < maxAttempts; attempt++ {
			g := db[r.Intn(len(db))]
			if g.EdgeCount() < m {
				continue
			}
			q := RandomConnectedSubgraph(g, m, r)
			if q.EdgeCount() == m {
				best = q
				break
			}
			if best == nil || q.EdgeCount() > best.EdgeCount() {
				best = q
			}
		}
		if best == nil {
			// Database graphs are all smaller than m; extract what exists.
			g := db[r.Intn(len(db))]
			best = RandomConnectedSubgraph(g, g.EdgeCount(), r)
		}
		out = append(out, best)
	}
	return out
}
