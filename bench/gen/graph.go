package gen

import "sort"

// Edge is one labeled undirected edge; generators keep U < V.
type Edge struct {
	U, V  int32
	Label uint16
}

type half struct {
	to    int32
	label uint16
}

// Graph is a labeled undirected graph whose vertex set is the set of edge
// endpoints (plus any vertex added explicitly), mirroring the server's
// model: deleting a vertex's last edge retires the vertex.
type Graph struct {
	labels map[int32]uint16
	adj    map[int32][]half
	edges  int
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{labels: map[int32]uint16{}, adj: map[int32][]half{}}
}

// EdgeCount returns the number of edges.
func (g *Graph) EdgeCount() int { return g.edges }

// Label returns v's label; v must exist.
func (g *Graph) Label(v int32) uint16 { return g.labels[v] }

// AddVertex adds v (a no-op when present).
func (g *Graph) AddVertex(v int32, l uint16) {
	if _, ok := g.labels[v]; !ok {
		g.labels[v] = l
	}
}

// HasEdge reports whether {u,v} exists.
func (g *Graph) HasEdge(u, v int32) bool {
	for _, h := range g.adj[u] {
		if h.to == v {
			return true
		}
	}
	return false
}

// AddEdge inserts {u,v}; both endpoints must exist and the edge must not.
func (g *Graph) AddEdge(u, v int32, l uint16) {
	g.adj[u] = append(g.adj[u], half{v, l})
	g.adj[v] = append(g.adj[v], half{u, l})
	g.edges++
}

// RemoveEdge deletes {u,v} and retires endpoints left without edges.
func (g *Graph) RemoveEdge(u, v int32) {
	g.removeHalf(u, v)
	g.removeHalf(v, u)
	g.edges--
}

func (g *Graph) removeHalf(u, v int32) {
	list := g.adj[u]
	for i, h := range list {
		if h.to == v {
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(list) == 0 {
		delete(g.adj, u)
		delete(g.labels, u)
	} else {
		g.adj[u] = list
	}
}

// VertexIDs returns the vertex IDs in ascending order.
func (g *Graph) VertexIDs() []int32 {
	ids := make([]int32, 0, len(g.labels))
	for v := range g.labels {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Neighbors returns v's incident edges as (v, neighbour) pairs, sorted by
// neighbour.
func (g *Graph) Neighbors(v int32) []Edge {
	out := make([]Edge, 0, len(g.adj[v]))
	for _, h := range g.adj[v] {
		out = append(out, Edge{U: v, V: h.to, Label: h.label})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].V < out[j].V })
	return out
}

// Edges returns every edge once with U < V, sorted by (U, V).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.edges)
	for u, list := range g.adj {
		for _, h := range list {
			if u < h.to {
				out = append(out, Edge{U: u, V: h.to, Label: h.label})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	c := NewGraph()
	for v, l := range g.labels {
		c.labels[v] = l
	}
	for v, list := range g.adj {
		c.adj[v] = append([]half(nil), list...)
	}
	c.edges = g.edges
	return c
}

// components returns the connected components, each sorted, ordered by
// smallest member.
func (g *Graph) components() [][]int32 {
	seen := map[int32]bool{}
	var comps [][]int32
	for _, s := range g.VertexIDs() {
		if seen[s] {
			continue
		}
		seen[s] = true
		comp := []int32{s}
		for i := 0; i < len(comp); i++ {
			for _, h := range g.adj[comp[i]] {
				if !seen[h.to] {
					seen[h.to] = true
					comp = append(comp, h.to)
				}
			}
		}
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		comps = append(comps, comp)
	}
	return comps
}
