// Package fuzzsched decodes fuzz input into a graph-stream schedule: a
// depth, one start graph per stream, and ops that change the streams and
// register or remove queries. The store fuzzers (internal/npv) and the join
// fuzzer (internal/join) decode through it, so a dense start graph is one
// byte for all of them, and one work budget, not a byte count, bounds what
// an input costs. It imports only internal/graph, so any package's tests
// can use it.
//
// # Format
//
// Missing bytes read as zero.
//
//   - Byte 0 is the header: the depth is 1 + h mod maxDepth, and h / maxDepth
//     seeds the random start graphs.
//   - Byte 1 is the label alphabet: 1 + (a & 3) vertex labels and
//     1 + (a >> 2 & 1) edge labels. Every label below is reduced into it.
//   - Then one base byte per stream (see base): the stream's start graph.
//   - Then ops, one op byte each, some followed by one operand byte. The op
//     byte's low two bits pick the op:
//   - 0, insert: the operand's nibbles are the endpoints (a self-loop is
//     skipped). A vertex new to the stream gets label bits 3–4 (the first
//     endpoint) or 5–6 (the second); a present one keeps its label unless
//     bit 2 is set, when the insert carries bits 3–6 as given and may
//     relabel, failing its change set. Bit 7 is the edge label; inserting
//     a present edge changes nothing, whatever its label.
//   - 1, delete: the operand's nibbles are the endpoints.
//   - 2, control: with bit 2 clear it ends the step; with it set, later edge
//     ops go to the next stream, in the same step.
//   - 3, query: ends the open step, then with bit 2 clear registers a
//     query — with bit 3 clear the base graph the operand names, else a
//     connected subgraph (sub) of the stream operand bit 0 picks, read from
//     the operand's other bits — and with bit 2 set removes the live query
//     the operand indexes, modulo the live count.
//
// # Budget
//
// Every part of the schedule is charged for the work a reference pays for
// it, in NNT tree nodes. A start graph or a query costs Σ_v deg(v)^depth,
// the nodes a forest builds for it. An edge op costs Σ_{k≤depth} 2k·Δ^(k−1),
// with Δ the largest degree the stream can have while the step applies: a
// bound on the tree nodes that run through the edge. Each op that ends in
// a check — a step, a registration, a removal — also costs, per live query
// and once more, four units per stream vertex and one per dimension its
// vector can have (depth·nl²·ne), plus one, for the check's sweep over the
// vectors. The decoder skips a start graph, query or op that would
// overspend Budget (a skipped start graph is empty) and stops reading once
// the budget is spent, so every schedule costs at most Budget, whatever
// its length.
package fuzzsched

import (
	"math/rand/v2"

	"nntstream/internal/graph"
)

// Budget bounds Schedule.Cost. It admits K16 at depth 3 (54,000 units)
// and K8 at depth 4 (19,208) with room for a few steps; K16 at depth 4
// (810,000) is out of reach. On a 2-vCPU VM (Go 1.24, no fuzzing
// instrumentation) the forest reference builds those two in 18 ms and
// 3.4 ms, K16 at depth 4 in 0.44 s, and the slowest schedule found, dense
// or long, ran through the store fuzzer's checks in 38 ms.
const Budget = 1 << 16

// Kind names a schedule op.
type Kind uint8

const (
	// Step changes the streams by one timestamp.
	Step Kind = iota
	// AddQuery registers Query.
	AddQuery
	// RemoveQuery removes the live query at position Index, counting the
	// live queries in registration order.
	RemoveQuery
)

// Op is one schedule op. For a Step, Changes holds each stream's change
// set as decoded, nil where the step leaves the stream alone, and Applied
// the part of it that applies: the whole set in Normalize order, or, when
// an insertion relabels a present vertex, the deletions and the insertions
// before it — what a store keeps of the failing set, and what a caller
// that must not pass a failing set applies instead.
type Op struct {
	Kind             Kind
	Changes, Applied []graph.ChangeSet
	Query            *graph.Graph
	Index            int
}

// Schedule is a decoded input: the depth, each stream's start graph, the
// ops, and what they cost (at most Budget).
type Schedule struct {
	Depth   int
	Streams []*graph.Graph
	Ops     []Op
	Cost    int
}

// decoder is Decode's state. g holds each stream as of the last step, and
// shadow the same plus the open step's insertions, applied as they are
// read: every state the step passes through is a subgraph of it (but for
// the edge of a relabelling insert), so its degrees bound the step's.
type decoder struct {
	data      []byte
	sc        Schedule
	nl, ne    int
	g, shadow []*graph.Graph
	open      []graph.ChangeSet
	stepOpen  bool
	cursor    int
	live      int
}

// Decode decodes data into a schedule over the given number of streams,
// at a depth in [1, maxDepth]. It is deterministic, and it never fails:
// every byte string is a schedule.
func Decode(data []byte, streams, maxDepth int) Schedule {
	d := &decoder{data: data}
	h, a := d.next(), d.next()
	d.sc.Depth = 1 + int(h)%maxDepth
	d.nl, d.ne = 1+int(a&3), 1+int(a>>2&1)
	for s := 0; s < streams; s++ {
		g := base(d.next(), d.nl, d.ne, uint64(h)/uint64(maxDepth)<<8|uint64(s))
		if !d.charge(d.weight(g)) {
			g = graph.New()
		}
		d.sc.Streams = append(d.sc.Streams, g)
		d.g = append(d.g, g.Clone())
		d.shadow = append(d.shadow, g.Clone())
	}
	d.open = make([]graph.ChangeSet, streams)
	for len(d.data) > 0 && d.sc.Cost < Budget {
		switch op := d.next(); op & 3 {
		case 0, 1:
			d.edge(op, d.next())
		case 2:
			if op&4 != 0 {
				d.cursor = (d.cursor + 1) % streams
			} else {
				if !d.stepOpen && !d.charge(d.sweep()) {
					continue
				}
				d.stepOpen = true
				d.endStep()
			}
		case 3:
			d.endStep()
			d.query(op, d.next())
		}
	}
	d.endStep()
	return d.sc
}

// next returns the next input byte, or 0 past the end.
func (d *decoder) next() byte {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

// charge spends c units and reports true, or reports false and spends
// nothing when that would overspend the budget.
func (d *decoder) charge(c int) bool {
	if d.sc.Cost+c > Budget {
		return false
	}
	d.sc.Cost += c
	return true
}

// weight is g's build cost, Σ_v deg(v)^depth.
func (d *decoder) weight(g *graph.Graph) int {
	w := 0
	g.Vertices(func(v graph.VertexID, _ graph.Label) bool {
		w += pow(g.Degree(v), d.sc.Depth)
		return true
	})
	return w
}

// sweep is the cost of one check: per live query and once more, four
// units per stream vertex and one per dimension its vector can have —
// depth·nl²·ne — plus one.
func (d *decoder) sweep() int {
	n := 0
	for _, g := range d.shadow {
		n += g.VertexCount()
	}
	return 1 + n*(4+d.sc.Depth*d.nl*d.nl*d.ne)*(1+d.live)
}

// edge decodes an insert or delete op on the cursor's stream.
func (d *decoder) edge(op, ends byte) {
	u, v := graph.VertexID(ends>>4), graph.VertexID(ends&15)
	if u == v {
		return
	}
	sh := d.shadow[d.cursor]
	c := graph.DeleteOp(u, v)
	if op&1 == 0 {
		c = graph.InsertOp(u, d.label(sh, u, op>>3, op&4 != 0), v, d.label(sh, v, op>>5, op&4 != 0), graph.Label(int(op>>7)%d.ne))
	}
	cost := 0
	if !d.stepOpen {
		cost = d.sweep()
	}
	// The degree bound counts the edge when it is inserted.
	deg := sh.MaxDegree()
	if c.Kind == graph.OpInsert && !sh.HasEdge(u, v) {
		deg = max(deg, sh.Degree(u)+1, sh.Degree(v)+1)
	}
	for k, p := 1, 1; k <= d.sc.Depth; k, p = k+1, p*deg {
		cost += 2 * k * p
	}
	if !d.charge(cost) {
		return
	}
	d.stepOpen = true
	d.open[d.cursor] = append(d.open[d.cursor], c)
	if c.Kind == graph.OpInsert && sh.AddVertex(u, c.ULabel) == nil && sh.AddVertex(v, c.VLabel) == nil {
		_ = sh.AddEdge(u, v, c.EdgeLabel)
	}
}

// label is the label an insert gives endpoint v of the stream: bits' low
// two bits when v is new to the shadow or force is set, else v's own.
func (d *decoder) label(sh *graph.Graph, v graph.VertexID, bits byte, force bool) graph.Label {
	if l, ok := sh.VertexLabel(v); ok && !force {
		return l
	}
	return graph.Label(int(bits&3) % d.nl)
}

// endStep closes the open step, if any: it applies each stream's change
// set, deletions first, up to the first insertion that fails, and appends
// the step. An insertion of a present edge is a store's no-op; Applied
// gives it the edge's own label, so a graph takes it as one too.
func (d *decoder) endStep() {
	if !d.stepOpen {
		return
	}
	op := Op{Kind: Step, Changes: d.open, Applied: make([]graph.ChangeSet, len(d.open))}
	for s, cs := range d.open {
		if cs == nil {
			continue
		}
		norm := cs.Normalize()
		n := 0
		for ; n < len(norm); n++ {
			if l, ok := d.g[s].EdgeLabel(norm[n].U, norm[n].V); ok && norm[n].Kind == graph.OpInsert {
				norm[n].EdgeLabel = l
			}
			if _, err := norm[n:n+1].ApplyUndoable(d.g[s], nil); err != nil {
				break
			}
		}
		op.Applied[s] = norm[:n]
		d.shadow[s] = d.g[s].Clone()
	}
	d.sc.Ops = append(d.sc.Ops, op)
	d.open = make([]graph.ChangeSet, len(d.open))
	d.stepOpen, d.cursor = false, 0
}

// query decodes a query op with its operand.
func (d *decoder) query(op, b byte) {
	if op&4 != 0 {
		if d.live > 0 && d.charge(d.sweep()) {
			d.sc.Ops = append(d.sc.Ops, Op{Kind: RemoveQuery, Index: int(b) % d.live})
			d.live--
		}
		return
	}
	var q *graph.Graph
	if op&8 == 0 {
		q = base(b, d.nl, d.ne, uint64(b))
	} else {
		q = sub(d.g[int(b&1)%len(d.g)], b>>1)
	}
	if q.VertexCount() == 0 || !d.charge(d.weight(q)+d.sweep()) {
		return
	}
	d.sc.Ops = append(d.sc.Ops, Op{Kind: AddQuery, Query: q})
	d.live++
}

// base returns the start graph base byte b names over vertices 0..n−1,
// with n = b & 31: by b >> 5, the empty graph on n vertices, the path, the
// star centred on 0, the wheel (hub 0, rim 1..n−1), K_n, and G(n, p) for
// p = 1/4, 1/2 and 3/4, drawn from seed. Vertex v has label v mod nl, and
// edge {u, v} label max(u, v) mod ne.
func base(b byte, nl, ne int, seed uint64) *graph.Graph {
	n := int(b & 31)
	g := graph.New()
	for v := 0; v < n; v++ {
		_ = g.AddVertex(graph.VertexID(v), graph.Label(v%nl))
	}
	link := func(u, v int) {
		if u != v {
			_ = g.AddEdge(graph.VertexID(u), graph.VertexID(v), graph.Label(max(u, v)%ne))
		}
	}
	r := rand.New(rand.NewPCG(seed, uint64(b)))
	for u := 0; u < n; u++ {
		switch kind := b >> 5; {
		case kind == 1 && u > 0:
			link(u-1, u)
		case kind == 2 && u > 0:
			link(0, u)
		case kind == 3 && u > 0:
			link(0, u)
			link(u, u%(n-1)+1)
		case kind >= 4:
			for v := u + 1; v < n; v++ {
				if kind == 4 || r.IntN(4) < int(kind-4) {
					link(u, v)
				}
			}
		}
	}
	return g
}

// sub returns a connected subgraph of g: from the vertex b & 7 indexes
// among those with an edge, in ascending order, the first 1 + b >> 3
// edges a breadth-first search meets, neighbours in ascending order. It is
// empty when g has no edge.
func sub(g *graph.Graph, b byte) *graph.Graph {
	q := graph.New()
	var starts []graph.VertexID
	for _, v := range g.VertexIDs() {
		if g.Degree(v) > 0 {
			starts = append(starts, v)
		}
	}
	if len(starts) == 0 {
		return q
	}
	start := starts[int(b&7)%len(starts)]
	want := 1 + int(b>>3)
	_ = q.AddVertex(start, g.MustVertexLabel(start))
	for queue := []graph.VertexID{start}; len(queue) > 0 && q.EdgeCount() < want; queue = queue[1:] {
		for _, e := range g.NeighborsSorted(queue[0]) {
			if q.EdgeCount() == want {
				break
			}
			if q.HasEdge(e.U, e.V) {
				continue
			}
			if !q.HasVertex(e.V) {
				queue = append(queue, e.V)
			}
			_ = q.AddVertex(e.V, g.MustVertexLabel(e.V))
			_ = q.AddEdge(e.U, e.V, e.Label)
		}
	}
	return q
}

// pow is b^e for a small exponent.
func pow(b, e int) int {
	p := 1
	for ; e > 0; e-- {
		p *= b
	}
	return p
}
