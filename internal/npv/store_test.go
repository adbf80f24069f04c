package npv

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"nntstream/internal/graph"
	"nntstream/internal/nnt"
)

// sealCheck holds the reference vectors of the last timestamp and the
// vectors the last three seals produced, each with a private copy.
type sealCheck struct {
	prev   map[graph.VertexID]Vector
	recent [][][2]PackedVector
}

// check is the seal contract, bit for bit: deltas lists, ascending, exactly
// the vertices whose reference vector differs between the previous
// timestamp and cur, presence included, with HadOld/HasNew their presence
// and Old/New equal to Pack of the two references; after it, the store
// serves cur; and every vector sealed three timestamps ago still equals the
// copy taken when it was sealed.
func (c *sealCheck) check(t *testing.T, at string, st *Store, deltas []DirtyDelta, cur map[graph.VertexID]Vector) {
	t.Helper()
	want := changedVertices(c.prev, cur)
	if len(deltas) != len(want) {
		t.Fatalf("%s: sealed %d vertices; changed %v", at, len(deltas), want)
	}
	var kept [][2]PackedVector
	for i, dl := range deltas {
		v := want[i]
		old, hadOld := c.prev[v]
		vec, hasNew := cur[v]
		if dl.Vertex != v || dl.HadOld != hadOld || dl.HasNew != hasNew || !dl.Old.Equal(Pack(old)) || !dl.New.Equal(Pack(vec)) {
			t.Fatalf("%s: delta %d = %+v; want vertex %d, old %v (%v), new %v (%v)", at, i, dl, v, old, hadOld, vec, hasNew)
		}
		if hasNew {
			kept = append(kept, [2]PackedVector{dl.New, Pack(vec)})
		}
	}
	n := 0
	st.PackedVectors(func(v graph.VertexID, p PackedVector) bool {
		n++
		if q, ok := st.Packed(v); !ok || !p.Equal(Pack(cur[v])) || !q.Equal(p) {
			t.Fatalf("%s: vertex %d serves %v; want %v", at, v, p, cur[v])
		}
		return true
	})
	if n != len(cur) || st.Len() != len(cur) {
		t.Fatalf("%s: serves %d vectors, Len %d; want %d", at, n, st.Len(), len(cur))
	}
	if c.recent = append(c.recent, kept); len(c.recent) > 3 {
		for _, k := range c.recent[0] {
			if !k[0].Equal(k[1]) {
				t.Fatalf("%s: a vector sealed three timestamps ago now reads %v; sealed as %v", at, k[0], k[1])
			}
		}
		c.recent = c.recent[1:]
	}
	c.prev = cur
}

// changedVertices lists, ascending, the vertices whose vector differs
// between two snapshots, presence included.
func changedVertices(before, after map[graph.VertexID]Vector) []graph.VertexID {
	var out []graph.VertexID
	for v, vec := range after {
		if old, ok := before[v]; !ok || !old.Equal(vec) {
			out = append(out, v)
		}
	}
	for v := range before {
		if _, ok := after[v]; !ok {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// diffVectors reports the first vertex on which two projections disagree.
func diffVectors(got, want map[graph.VertexID]Vector) (graph.VertexID, bool) {
	for v, w := range want {
		if g, ok := got[v]; !ok || !g.Equal(w) {
			return v, true
		}
	}
	for v := range got {
		if _, ok := want[v]; !ok {
			return v, true
		}
	}
	return 0, false
}

// randomBatch draws one timestamp's change set over vertex IDs [0, n) that
// is valid against g: deletions of present and absent edges, insertions of
// new edges and idempotent re-inserts of present ones, and — when a vertex
// is picked for it — the retirement of a vertex (every incident edge
// deleted) and its re-addition under a possibly different label, all in one
// timestamp. The ops are shuffled so the consumer has to order deletions
// first itself. g is advanced to the post-state.
func randomBatch(r *rand.Rand, g *graph.Graph, n int) graph.ChangeSet {
	var dels, ins graph.ChangeSet
	if ids := g.VertexIDs(); len(ids) > 0 && r.Intn(3) == 0 {
		v := ids[r.Intn(len(ids))]
		for _, e := range g.NeighborsSorted(v) {
			dels = append(dels, graph.DeleteOp(e.U, e.V))
		}
	}
	for k := r.Intn(4); k > 0; k-- {
		u, v := graph.VertexID(r.Intn(n)), graph.VertexID(r.Intn(n))
		if u != v {
			dels = append(dels, graph.DeleteOp(u, v)) // present or absent
		}
	}
	for _, op := range dels {
		_ = op.Apply(g)
	}
	for k := r.Intn(5); k > 0; k-- {
		u, v := graph.VertexID(r.Intn(n)), graph.VertexID(r.Intn(n))
		if u == v {
			continue
		}
		ul, ok := g.VertexLabel(u)
		if !ok {
			ul = graph.Label(r.Intn(3))
		}
		vl, ok := g.VertexLabel(v)
		if !ok {
			vl = graph.Label(r.Intn(3))
		}
		el, ok := g.EdgeLabel(u, v)
		if !ok {
			el = graph.Label(r.Intn(2))
		}
		op := graph.InsertOp(u, ul, v, vl, el) // a re-insert when present
		if err := op.Apply(g); err != nil {
			panic(err)
		}
		ins = append(ins, op)
	}
	cs := append(dels, ins...)
	r.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
	return cs
}

func randomStart(r *rand.Rand, n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		_ = g.AddVertex(graph.VertexID(i), graph.Label(r.Intn(3)))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < 0.35 {
				_ = g.AddEdge(graph.VertexID(i), graph.VertexID(j), graph.Label(r.Intn(2)))
			}
		}
	}
	return g
}

// TestStoreMatchesForestAndScratch is the recount contract: random batched
// change sets, at depths 1–4 (level 4 with its triangle correction), run
// through the recounting Store, a Space
// observing an incrementally patched Forest, and a from-scratch projection
// of the post-state graph. After every timestamp the forest agrees with the
// scratch projection, Nodes equals the forest's TotalNodes, the store's
// seal meets sealCheck's contract against the scratch projections, and the
// forest observer's dirty set covers every changed vertex (it may
// over-report: it dirties every root an edge event touched). A
// degree-skewed case bulk-rewrites a hub's edges every timestamp.
func TestStoreMatchesForestAndScratch(t *testing.T) {
	for depth := 1; depth <= 4; depth++ {
		for seed := int64(0); seed < 6; seed++ {
			r := rand.New(rand.NewSource(seed*10 + int64(depth)))
			const n = 8
			replayAgainstForest(t, fmt.Sprintf("depth=%d seed=%d", depth, seed), randomStart(r, n), depth, 30,
				func(mirror *graph.Graph) graph.ChangeSet { return randomBatch(r, mirror, n) })
		}
	}
	for depth := 1; depth <= 4; depth++ {
		r := rand.New(rand.NewSource(int64(depth)))
		replayAgainstForest(t, fmt.Sprintf("hub depth=%d", depth), hubStart(r), depth, 20,
			func(mirror *graph.Graph) graph.ChangeSet { return hubBatch(r, mirror) })
	}
}

// replayAgainstForest runs steps change sets drawn by next from g through a
// Store, a Space observing a Forest, and a scratch projection, and checks
// them against each other after every timestamp (see
// TestStoreMatchesForestAndScratch). next advances the mirror it is given.
func replayAgainstForest(t *testing.T, name string, g *graph.Graph, depth, steps int, next func(*graph.Graph) graph.ChangeSet) {
	t.Helper()
	st := NewStore(g, depth)
	sp := NewSpace()
	f := nnt.NewForest(g, depth, sp)
	var c sealCheck
	c.check(t, name+" build", st, st.SealDirty(), ProjectForest(nnt.NewForest(g, depth)))
	sp.TakeDirty()
	mirror := g.Clone()
	for step := 0; step < steps; step++ {
		cs := next(mirror)
		at := fmt.Sprintf("%s step=%d %v", name, step, cs)
		if err := st.Apply(cs); err != nil {
			t.Fatalf("%s: store: %v", at, err)
		}
		if err := f.ApplySet(cs); err != nil {
			t.Fatalf("%s: forest: %v", at, err)
		}
		scratch := ProjectForest(nnt.NewForest(mirror, depth))
		if v, bad := diffVectors(sp.vectors, scratch); bad {
			t.Fatalf("%s: forest vector of %d = %v; scratch %v", at, v, sp.Vector(v), scratch[v])
		}
		if st.Nodes() != f.TotalNodes() {
			t.Fatalf("%s: Nodes = %d; forest TotalNodes = %d", at, st.Nodes(), f.TotalNodes())
		}
		deltas := st.SealDirty()
		c.check(t, at, st, deltas, scratch)
		observed := make(map[graph.VertexID]bool)
		for _, v := range sp.TakeDirty() {
			observed[v] = true
		}
		for _, dl := range deltas {
			if !observed[dl.Vertex] {
				t.Fatalf("%s: forest observer missed changed vertex %d", at, dl.Vertex)
			}
		}
	}
}

// hubN is the vertex count of the degree-skewed case; vertex 0 is its hub.
const hubN = 40

// hubStart draws a sparse graph over hubN vertices (mean degree ~4 off the
// hub) plus a hub adjacent to 32 of them.
func hubStart(r *rand.Rand) *graph.Graph {
	g := graph.New()
	for i := 0; i < hubN; i++ {
		_ = g.AddVertex(graph.VertexID(i), graph.Label(r.Intn(3)))
	}
	for i := 1; i < hubN; i++ {
		for j := i + 1; j < hubN; j++ {
			if r.Float64() < 0.1 {
				_ = g.AddEdge(graph.VertexID(i), graph.VertexID(j), graph.Label(r.Intn(2)))
			}
		}
	}
	for _, v := range r.Perm(hubN - 1)[:32] {
		_ = g.AddEdge(0, graph.VertexID(v+1), graph.Label(r.Intn(2)))
	}
	return g
}

// hubBatch draws one timestamp that bulk-rewrites the hub's edges, valid
// against g: it deletes about a third of them, re-inserts half of those
// under the other edge label, links new neighbours until the hub has 30
// again, and adds two background ops. A leaf whose only edge went is
// retired, and may come back under another label. g is advanced to the
// post-state; the ops are shuffled.
func hubBatch(r *rand.Rand, g *graph.Graph) graph.ChangeSet {
	var dels, ins graph.ChangeSet
	var relabel []graph.Edge
	for _, e := range g.NeighborsSorted(0) {
		if r.Intn(3) == 0 {
			dels = append(dels, graph.DeleteOp(e.U, e.V))
			if r.Intn(2) == 0 {
				relabel = append(relabel, e)
			}
		}
	}
	u, v := graph.VertexID(1+r.Intn(hubN-1)), graph.VertexID(1+r.Intn(hubN-1))
	if u != v {
		dels = append(dels, graph.DeleteOp(u, v))
	}
	for _, op := range dels {
		_ = op.Apply(g)
	}
	label := func(v graph.VertexID) graph.Label {
		if l, ok := g.VertexLabel(v); ok {
			return l
		}
		return graph.Label(r.Intn(3))
	}
	link := func(u, v graph.VertexID, el graph.Label) {
		op := graph.InsertOp(u, label(u), v, label(v), el)
		if err := op.Apply(g); err != nil {
			panic(err)
		}
		ins = append(ins, op)
	}
	for _, e := range relabel {
		link(e.U, e.V, 1-e.Label)
	}
	for g.Degree(0) < 30 {
		if v := graph.VertexID(1 + r.Intn(hubN-1)); !g.HasEdge(0, v) {
			link(0, v, graph.Label(r.Intn(2)))
		}
	}
	if u, v := graph.VertexID(1+r.Intn(hubN-1)), graph.VertexID(1+r.Intn(hubN-1)); u != v && !g.HasEdge(u, v) {
		link(u, v, graph.Label(r.Intn(2)))
	}
	cs := append(dels, ins...)
	r.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
	return cs
}

// TestStoreRetireReaddUnchanged pins the dirty rule on the case the forest
// observer cannot express: a vertex retired and re-added within one
// timestamp with the same neighbourhood has the same vector and is not
// sealed, and neither is anything else; the re-insert of a present edge and
// the deletion of an absent one change nothing either.
func TestStoreRetireReaddUnchanged(t *testing.T) {
	g := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1, 2: 2},
		[][3]int{{0, 1, 0}, {1, 2, 0}})
	st := NewStore(g, 3)
	if got := len(st.SealDirty()); got != 3 {
		t.Fatalf("initial build sealed %d vertices; want 3", got)
	}
	cs := graph.ChangeSet{
		graph.InsertOp(1, 1, 2, 2, 0), // retire-and-re-add of vertex 2
		graph.DeleteOp(1, 2),
		graph.InsertOp(0, 0, 1, 1, 0), // idempotent re-insert
		graph.DeleteOp(0, 2),          // absent edge
	}
	if err := st.Apply(cs); err != nil {
		t.Fatal(err)
	}
	if deltas := st.SealDirty(); deltas != nil {
		t.Fatalf("unchanged timestamp sealed %+v", deltas)
	}
	// Re-added under another label, vertex 2 changes — and so do 1 (its
	// level-1 dimension) and 0 (its level-2 dimension).
	old2, _ := st.Packed(2)
	if err := st.Apply(graph.ChangeSet{graph.DeleteOp(1, 2), graph.InsertOp(1, 1, 2, 5, 0)}); err != nil {
		t.Fatal(err)
	}
	deltas := st.SealDirty()
	if len(deltas) != 3 || deltas[0].Vertex != 0 || deltas[1].Vertex != 1 || deltas[2].Vertex != 2 {
		t.Fatalf("relabelling re-add sealed %+v; want vertices 0, 1, 2", deltas)
	}
	d2 := deltas[2]
	if !d2.HadOld || !d2.HasNew || !d2.Old.Equal(old2) || d2.New.Get(NewDim(1, 5, 0, 1)) != 1 {
		t.Fatalf("delta of re-added vertex 2 = %+v", d2)
	}
}

// TestStoreStampsDoNotWrap runs a timestamp after both of the store's
// per-timestamp counters have passed 2³²−1, the point where 32-bit ones
// wrap to the zero a new vertex starts with and a sweep mistakes it for
// seen: inserting edge 1–2 with a new vertex 2 must still give vertex 2 its
// vector and reach vertices 0 and 1.
func TestStoreStampsDoNotWrap(t *testing.T) {
	g := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1}, [][3]int{{0, 1, 0}})
	st := NewStore(g, 3)
	var c sealCheck
	c.check(t, "build", st, st.SealDirty(), ProjectForest(nnt.NewForest(g, 3)))
	st.stamp, st.round = math.MaxUint32, math.MaxUint32
	if err := st.Apply(graph.ChangeSet{graph.InsertOp(1, 1, 2, 2, 0)}); err != nil {
		t.Fatal(err)
	}
	ref := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1, 2: 2}, [][3]int{{0, 1, 0}, {1, 2, 0}})
	c.check(t, "after the counters pass 2³²−1", st, st.SealDirty(), ProjectForest(nnt.NewForest(ref, 3)))
}

// TestStoreErrors is the error contract: a label conflict or a self-loop
// fails with an error naming the vertex, the ops applied before it stay
// applied and counted, and a depth outside [1, MaxDepth] panics at
// construction.
func TestStoreErrors(t *testing.T) {
	g := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1}, [][3]int{{0, 1, 0}})
	st := NewStore(g, 2)
	var c sealCheck
	c.check(t, "build", st, st.SealDirty(), ProjectForest(nnt.NewForest(g, 2)))
	err := st.Apply(graph.ChangeSet{
		graph.InsertOp(1, 1, 2, 2, 0),
		graph.InsertOp(0, 9, 3, 0, 0), // vertex 0 has label 0
	})
	if err == nil || !strings.Contains(err.Error(), "vertex 0") {
		t.Fatalf("relabel error = %v; want one naming vertex 0", err)
	}
	ref := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1, 2: 2}, [][3]int{{0, 1, 0}, {1, 2, 0}})
	c.check(t, "after a failing op", st, st.SealDirty(), ProjectForest(nnt.NewForest(ref, 2)))
	if err := st.Apply(graph.ChangeSet{graph.InsertOp(4, 0, 4, 0, 0)}); err == nil || !strings.Contains(err.Error(), "vertex 4") {
		t.Fatalf("self-loop error = %v; want one naming vertex 4", err)
	}
	for _, depth := range []int{0, MaxDepth + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("depth %d did not panic", depth)
				}
			}()
			NewStore(g, depth)
		}()
	}
}

// decodeSchedule's bounds keep the forest reference in milliseconds per
// input, so a short fuzzing budget is spent fuzzing. nnt.NewForest over K8
// at depth 4 builds 14k nodes in about 5 ms, over K16 683k in about 0.44 s.
// The fuzzer minimizes every new input it keeps, and the minimizer's runs
// are not counted: past 96 bytes they stalled the exec count for 10 s and
// more at a time, at every depth (a 207-byte input at depth 2 held it at
// zero for 27 s), so the byte bound holds at every depth. It leaves room
// for the largest start graph and at least 24 ops.
const (
	maxDepth4Vertices = 8
	maxScheduleBytes  = 96
)

// decodeSchedule turns fuzz bytes into a depth, a start graph over at most
// sixteen vertices — as many as an endpoint nibble addresses, so a vertex
// can reach degree 15, except at depth 4, where maxDepth4Vertices caps the
// count — and a schedule of change sets. It reads the first
// maxScheduleBytes bytes. Byte 0 picks the depth (1–4) and
// the vertex count; then one label byte per vertex; then a count
// of start edges and two bytes per edge; the rest are two-byte ops: the
// first byte's bit 0 picks insert/delete, bit 1 ends the timestamp after
// the op, bit 2 makes an insertion reuse the endpoints' current labels
// (else bits 3–6 supply them, which may conflict), bit 7 is the edge label;
// the second byte's nibbles are the endpoints. Self-loops are skipped.
func decodeSchedule(data []byte) (depth int, g *graph.Graph, steps []graph.ChangeSet) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	data = data[:min(len(data), maxScheduleBytes)]
	h := next()
	depth = 1 + int(h%4)
	n := 2 + int(h>>2)%15
	if depth == 4 {
		n = min(n, maxDepth4Vertices)
	}
	g = graph.New()
	for i := 0; i < n; i++ {
		_ = g.AddVertex(graph.VertexID(i), graph.Label(next()%3))
	}
	for k := int(next() % 16); k > 0; k-- {
		a, b := next(), next()
		u, v := graph.VertexID(int(b>>4)%n), graph.VertexID(int(b&15)%n)
		if u != v {
			_ = g.AddEdge(u, v, graph.Label(a&1))
		}
	}
	labels := g.Clone() // tracks labels for bit-2 insertions
	var cs graph.ChangeSet
	for len(data) >= 2 {
		a, b := next(), next()
		u, v := graph.VertexID(int(b>>4)%n), graph.VertexID(int(b&15)%n)
		if u != v {
			if a&1 == 0 {
				ul, vl := graph.Label(a>>3&3%3), graph.Label(a>>5&3%3)
				if a&4 != 0 {
					if l, ok := labels.VertexLabel(u); ok {
						ul = l
					}
					if l, ok := labels.VertexLabel(v); ok {
						vl = l
					}
				}
				cs = append(cs, graph.InsertOp(u, ul, v, vl, graph.Label(a>>7)))
			} else {
				cs = append(cs, graph.DeleteOp(u, v))
			}
		}
		if a&2 != 0 {
			_ = cs.Normalize().Apply(labels)
			steps = append(steps, cs)
			cs = nil
		}
	}
	if len(cs) > 0 {
		steps = append(steps, cs)
	}
	return depth, g, steps
}

// FuzzRecountMatchesForest decodes a start graph and a change-set schedule
// and checks, after every timestamp, that the recounting Store and a Space
// observing a patched Forest agree on the node count and on whether the
// timestamp failed (label conflicts included: both apply the same prefix,
// in the same order), and that the store's seal meets sealCheck's contract
// against the forest's vectors.
func FuzzRecountMatchesForest(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x06, 0, 1, 2, 3, 2, 0, 0x01, 1, 0x12, 0x04, 0x23, 0x07, 0x01})
	f.Add([]byte{0x0b, 1, 1, 1, 4, 0, 0x01, 0, 0x12, 0, 0x23, 0, 0x30, 0x05, 0x13, 0x03, 0x12, 0x04, 0x12, 0x06, 0x01})
	r := rand.New(rand.NewSource(25))
	for i := 0; i < 8; i++ {
		b := make([]byte, 16+r.Intn(48))
		r.Read(b)
		f.Add(b)
	}
	// A star: depth 3, 16 vertices, a hub adjacent to all 15 others, then
	// timestamps that rewrite its edges, one under the other edge label.
	star := []byte{0x3a, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 15}
	for v := byte(1); v < 16; v++ {
		star = append(star, v&1, v)
	}
	star = append(star, 0x01, 0x01, 0x01, 0x02, 0x06, 0x12, 0x84, 0x01, 0x03, 0x0f, 0x06, 0xf3, 0x03, 0x03)
	f.Add(star)
	// A path 0–1–2–3–4 at depth 4, whose far end then moves: vertex 0's
	// level 4 changes through an edge three hops away.
	f.Add([]byte{0x0f, 0, 1, 2, 0, 1, 4, 0, 0x01, 0, 0x12, 0, 0x23, 0, 0x34, 0x03, 0x34, 0x86, 0x34})
	for _, seed := range triangleDense() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		depth, g, steps := decodeSchedule(data)
		st := NewStore(g, depth)
		sp := NewSpace()
		fo := nnt.NewForest(g, depth, sp)
		var c sealCheck
		c.check(t, "build", st, st.SealDirty(), snapshot(sp))
		for i, cs := range steps {
			serr := st.Apply(cs)
			ferr := fo.ApplySet(cs)
			at := fmt.Sprintf("step %d %v", i, cs)
			if (serr == nil) != (ferr == nil) {
				t.Fatalf("%s: store error %v, forest error %v", at, serr, ferr)
			}
			if st.Nodes() != fo.TotalNodes() {
				t.Fatalf("%s: Nodes = %d; TotalNodes = %d", at, st.Nodes(), fo.TotalNodes())
			}
			c.check(t, at, st, st.SealDirty(), snapshot(sp))
		}
	})
}

// triangleDense returns depth-4 schedules (decodeSchedule's format) over
// graphs where every edge lies on triangles, so level 4's r→a→b→r→a
// correction carries most of the count: K4, K5 and a wheel, each losing,
// relabelling and regaining edges — a chord, spokes and rim edges of the
// wheel included.
func triangleDense() [][]byte {
	complete := func(h byte, labels []byte) []byte {
		n := byte(len(labels))
		b := append([]byte{h}, labels...)
		b = append(b, n*(n-1)/2)
		for u := byte(0); u < n; u++ {
			for v := u + 1; v < n; v++ {
				b = append(b, u&1, u<<4|v)
			}
		}
		return b
	}
	k4 := append(complete(0x0b, []byte{0, 1, 2, 0}),
		0x03, 0x01, 0x86, 0x01, 0x01, 0x23, 0x06, 0x23, 0x01, 0x02, 0x03, 0x13)
	k5 := append(complete(0x0f, []byte{0, 0, 1, 1, 2}),
		0x03, 0x04, 0x01, 0x12, 0x03, 0x23, 0x06, 0x04, 0x86, 0x12, 0x06, 0x23)
	// A wheel: hub 0 and the rim 1–6, each rim vertex on two triangles.
	wheel := []byte{0x17, 0, 1, 2, 1, 2, 1, 2, 12}
	for v := byte(1); v <= 6; v++ {
		wheel = append(wheel, v&1, v, 0, v<<4|(v%6+1))
	}
	wheel = append(wheel, 0x06, 0x14, 0x03, 0x02, 0x01, 0x34, 0x06, 0x02, 0x87, 0x56, 0x03, 0x01, 0x06, 0x25)
	return [][]byte{k4, k5, wheel}
}

// snapshot deep-copies every vector of a space.
func snapshot(sp *Space) map[graph.VertexID]Vector {
	out := make(map[graph.VertexID]Vector, sp.Len())
	for v, vec := range sp.vectors {
		out[v] = vec.Clone()
	}
	return out
}
