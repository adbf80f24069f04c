package gen

// The paper's synthetic setup (Section VI): basic graphs assembled from seed
// fragments in the style of the Kuramochi–Karypis generator (V=4 vertex
// labels, E=1 edge label), stream templates grown to 1.5× the basic graph's
// vertices, streams that flip a coin per potential edge per timestamp, and
// query patterns extracted as connected subgraphs.

const (
	vertexLabels = 4
	edgeLabels   = 1
	// overlapProb is the chance an inserted fragment vertex is glued onto an
	// existing vertex of the same label, which is how fragments share
	// structure.
	overlapProb = 0.3
)

// connectedBySize grows a connected graph with exactly `edges` edges: each
// step attaches a new vertex or closes a cycle.
func connectedBySize(r *Rand, edges int) *Graph {
	g := NewGraph()
	g.AddVertex(0, uint16(r.Intn(vertexLabels)))
	ids := []int32{0}
	for g.EdgeCount() < edges {
		if r.Float64() < 0.7 || len(ids) < 3 {
			u := ids[r.Intn(len(ids))]
			v := int32(len(ids))
			g.AddVertex(v, uint16(r.Intn(vertexLabels)))
			g.AddEdge(u, v, uint16(r.Intn(edgeLabels)))
			ids = append(ids, v)
		} else {
			u := ids[r.Intn(len(ids))]
			v := ids[r.Intn(len(ids))]
			if u != v && !g.HasEdge(u, v) {
				g.AddEdge(u, v, uint16(r.Intn(edgeLabels)))
			}
		}
	}
	return g
}

// Fragments draws n seed fragments of Poisson(meanEdges) edges each.
func Fragments(r *Rand, n int, meanEdges float64) []*Graph {
	out := make([]*Graph, n)
	for i := range out {
		size := r.Poisson(meanEdges)
		if size < 1 {
			size = 1
		}
		out[i] = connectedBySize(r, size)
	}
	return out
}

// Assemble builds one basic graph by inserting random fragments until it
// has at least target edges, then bridges any disconnected components.
func Assemble(r *Rand, frags []*Graph, target int) *Graph {
	g := NewGraph()
	next := int32(0)
	byLabel := map[uint16][]int32{}
	for g.EdgeCount() < target {
		frag := frags[r.Intn(len(frags))]
		mapping := map[int32]int32{}
		for _, fv := range frag.VertexIDs() {
			l := frag.Label(fv)
			if cand := byLabel[l]; len(cand) > 0 && r.Float64() < overlapProb {
				mapping[fv] = cand[r.Intn(len(cand))]
				continue
			}
			g.AddVertex(next, l)
			byLabel[l] = append(byLabel[l], next)
			mapping[fv] = next
			next++
		}
		for _, e := range frag.Edges() {
			u, v := mapping[e.U], mapping[e.V]
			if u != v && !g.HasEdge(u, v) {
				g.AddEdge(u, v, e.Label)
			}
		}
	}
	// Gluing can leave a mapped vertex without edges; the server's model has
	// no isolated vertices, so drop them before bridging components.
	for _, v := range g.VertexIDs() {
		if len(g.adj[v]) == 0 {
			delete(g.labels, v)
		}
	}
	comps := g.components()
	for i := 1; i < len(comps); i++ {
		u := comps[0][r.Intn(len(comps[0]))]
		v := comps[i][r.Intn(len(comps[i]))]
		g.AddEdge(u, v, uint16(r.Intn(edgeLabels)))
	}
	return g
}

// Template grows a basic graph into a stream template: the vertex count is
// multiplied by growth with each new vertex wired to 1–3 existing ones, then
// extraFrac × |E(basic)| random potential edges are sprinkled between
// template vertices. The template's edge set is the universe the coin flips
// act on.
func Template(r *Rand, basic *Graph, growth, extraFrac float64) *Graph {
	t := basic.Clone()
	ids := t.VertexIDs()
	next := ids[len(ids)-1] + 1
	extra := int(float64(len(ids))*growth) - len(ids)
	for i := 0; i < extra; i++ {
		v := next
		next++
		t.AddVertex(v, uint16(r.Intn(vertexLabels)))
		for w := 1 + r.Intn(3); w > 0; w-- {
			u := ids[r.Intn(len(ids))]
			if !t.HasEdge(u, v) {
				t.AddEdge(u, v, uint16(r.Intn(edgeLabels)))
			}
		}
		ids = append(ids, v)
	}
	want := t.EdgeCount() + int(extraFrac*float64(basic.EdgeCount()))
	for attempts := 0; t.EdgeCount() < want && attempts < 50*want; attempts++ {
		u := ids[r.Intn(len(ids))]
		v := ids[r.Intn(len(ids))]
		if u != v && !t.HasEdge(u, v) {
			t.AddEdge(u, v, uint16(r.Intn(edgeLabels)))
		}
	}
	return t
}

// Subgraph extracts a connected subgraph of g with up to wantEdges edges,
// grown from a random start vertex; vertex IDs and labels are preserved.
func Subgraph(r *Rand, g *Graph, wantEdges int) *Graph {
	sub := NewGraph()
	ids := g.VertexIDs()
	start := ids[r.Intn(len(ids))]
	sub.AddVertex(start, g.Label(start))
	growSubgraph(r, g, sub, wantEdges)
	return sub
}

// growSubgraph extends sub (holding at least one vertex of g) to up to
// wantEdges edges by a random frontier walk over g.
func growSubgraph(r *Rand, g, sub *Graph, wantEdges int) {
	frontier := sub.VertexIDs()
	for sub.EdgeCount() < wantEdges && len(frontier) > 0 {
		fi := r.Intn(len(frontier))
		v := frontier[fi]
		es := g.Neighbors(v)
		added := false
		for _, idx := range r.Perm(len(es)) {
			e := es[idx]
			if sub.HasEdge(e.U, e.V) {
				continue
			}
			sub.AddVertex(e.V, g.Label(e.V))
			sub.AddEdge(e.U, e.V, e.Label)
			frontier = append(frontier, e.V)
			added = true
			break
		}
		if !added {
			frontier = append(frontier[:fi], frontier[fi+1:]...)
		}
	}
}

// OverlapQueries draws templates × perTemplate queries of `edges` edges from
// g. Every query of one template shares a connected core of
// round(overlap × edges) edges verbatim and regrows the rest independently.
func OverlapQueries(r *Rand, g *Graph, templates, perTemplate, edges int, overlap float64) []*Graph {
	coreEdges := int(overlap*float64(edges) + 0.5)
	out := make([]*Graph, 0, templates*perTemplate)
	for t := 0; t < templates; t++ {
		core := Subgraph(r, g, coreEdges)
		for i := 0; i < perTemplate; i++ {
			q := core.Clone()
			growSubgraph(r, g, q, edges)
			out = append(out, q)
		}
	}
	return out
}

// Op is one edge operation of a change set. Labels are set on insertions.
type Op struct {
	Ins        bool
	U, V       int32
	UL, VL, EL uint16
}

// Flipper is the paper's coin-flip stream: every potential edge of the
// template appears with probability P1 when absent and disappears with
// probability P2 when present, once per timestamp. G0 draws each edge with
// the stationary probability P1/(P1+P2), so the stream starts in
// equilibrium.
//
// Only the template's hot edges ever change; the rest of G0 stays as drawn.
// With every edge hot this is the paper's process. The low-churn workloads
// confine the same number of operations per timestamp to a tenth of the
// edges (links that flap, the rest stable), which makes the stream forget
// its history ten times faster: a run then covers dozens of relaxation times
// instead of a handful, and its candidate ratio no longer depends on which
// way one seed's random walk happened to drift.
type Flipper struct {
	tmpl      *Graph
	potential []Edge
	present   []bool
	hot       []int // indices into potential
	P1, P2    float64
	r         *Rand
}

// NewFlipper draws G0 over the template and marks each potential edge hot
// with probability hotShare, both from init; every later flip and toggle
// draws from r.
func NewFlipper(init, r *Rand, tmpl *Graph, p1, p2, hotShare float64) *Flipper {
	f := &Flipper{tmpl: tmpl, potential: tmpl.Edges(), P1: p1, P2: p2, r: r}
	f.present = make([]bool, len(f.potential))
	stationary := p1 / (p1 + p2)
	for i := range f.potential {
		f.present[i] = init.Float64() < stationary
		if init.Float64() < hotShare {
			f.hot = append(f.hot, i)
		}
	}
	return f
}

// Graph returns the stream's current graph.
func (f *Flipper) Graph() *Graph {
	g := NewGraph()
	for i, e := range f.potential {
		if f.present[i] {
			g.AddVertex(e.U, f.tmpl.Label(e.U))
			g.AddVertex(e.V, f.tmpl.Label(e.V))
			g.AddEdge(e.U, e.V, e.Label)
		}
	}
	return g
}

func (f *Flipper) op(i int) Op {
	e := f.potential[i]
	if f.present[i] {
		return Op{Ins: true, U: e.U, V: e.V, UL: f.tmpl.Label(e.U), VL: f.tmpl.Label(e.V), EL: e.Label}
	}
	return Op{U: e.U, V: e.V}
}

// Step advances one timestamp and returns its change set, deletions first
// (the processing order Section III-B prescribes).
func (f *Flipper) Step() []Op {
	var dels, inss []Op
	for _, i := range f.hot {
		if f.present[i] {
			if f.r.Float64() < f.P2 {
				f.present[i] = false
				dels = append(dels, f.op(i))
			}
		} else if f.r.Float64() < f.P1 {
			f.present[i] = true
			inss = append(inss, f.op(i))
		}
	}
	return append(dels, inss...)
}

// Toggle flips one random hot edge: present becomes absent and back.
func (f *Flipper) Toggle() []Op {
	i := f.hot[f.r.Intn(len(f.hot))]
	f.present[i] = !f.present[i]
	return []Op{f.op(i)}
}
