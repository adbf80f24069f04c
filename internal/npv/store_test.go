package npv

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"nntstream/internal/fuzzsched"
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
		checkCountsPositive(t, at, dl)
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

// checkCountsPositive fails unless every count of dl.New is positive: a
// seal saturates counts past MaxInt32, so none wraps negative, and it never
// keeps a zero count.
func checkCountsPositive(t *testing.T, at string, dl DirtyDelta) {
	t.Helper()
	for i := 0; i < dl.New.Len(); i++ {
		if c := dl.New.Count(i); c <= 0 {
			t.Fatalf("%s: vertex %d seals count %d in dimension %d", at, dl.Vertex, c, dl.New.Dim(i))
		}
	}
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

// TestSealSaturates seals level counts at and past MaxInt32 and reads
// min(count, MaxInt32), from an exact store and from a capped one whose cap
// is MaxInt32. A depth-4 K220 reaches such a count (the join package's
// TestDenseCliqueCountsSaturate); no graph small enough for a unit test
// reaches one at depth 3, so the test sets the levels of vertex 0 — a
// single edge's level-1 count — directly.
func TestSealSaturates(t *testing.T) {
	g := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 0}, [][3]int{{0, 1, 0}})
	for _, capOf := range []func(Dim) int32{nil, func(Dim) int32 { return math.MaxInt32 }} {
		st := NewCappedStore(g, 3, capOf)
		st.SealDirty()
		// sealed 0: the sealed count stays where the previous row left it,
		// so the seal reports no delta.
		for _, c := range []struct{ level, sealed int64 }{
			{math.MaxInt32 - 1, math.MaxInt32 - 1},
			{1 << 40, math.MaxInt32},
			{math.MaxInt32 + 1, 0},
			{math.MaxInt32, 0},
			{5, 5},
		} {
			v := st.verts[0]
			v.lv[0][0].n = c.level
			st.markDirty(v)
			deltas := st.SealDirty()
			if c.sealed == 0 && deltas != nil ||
				c.sealed != 0 && (len(deltas) != 1 || deltas[0].New.Len() != 1 || int64(deltas[0].New.Count(0)) != c.sealed) {
				t.Fatalf("capped %v: level count %d sealed as %+v; want count %d", capOf != nil, c.level, deltas, c.sealed)
			}
		}
	}
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

// scheduleSeeds are the store fuzzers' named seeds, in fuzzsched's format
// over one stream: the header (depth − 1), the alphabet (6: three vertex
// labels and two edge labels), the base byte, then ops — 0x01 u<<4|v
// deletes, 0x00 (0x80: edge label 1) u<<4|v inserts, 0x02 ends the step.
var scheduleSeeds = []struct {
	name string
	data []byte
}{
	{"empty", nil},
	// The path 0–1–2 at depth 3 grows into a triangle, loses an edge and
	// gains a vertex.
	{"path", []byte{2, 6, 1<<5 | 3, 0x00, 0x02, 0x02, 0x01, 0x01, 0x80, 0x23, 0x02}},
	// A star at depth 3, hub 0 adjacent to the 15 others, whose edges are
	// rewritten: one under the other edge label within a step.
	{"star", []byte{2, 6, 2<<5 | 16, 0x01, 0x01, 0x02, 0x00, 0x01, 0x01, 0x02, 0x02,
		0x01, 0x0f, 0x00, 0x0f, 0x02, 0x80, 0x02, 0x02}},
	// The path 0–1–2–3–4 at depth 4, whose far end then moves: vertex 0's
	// level 4 changes through an edge three hops away.
	{"depth-4 path", []byte{3, 6, 1<<5 | 5, 0x01, 0x34, 0x02, 0x80, 0x34, 0x02, 0x01, 0x34, 0x00, 0x34, 0x02}},
	// Depth 4 on graphs where every edge lies on triangles, so level 4's
	// r→a→b→r→a correction carries most of the count: K4, K5 and the wheel
	// on 7 vertices (hub 0, rim 1–6), each losing, relabelling and
	// regaining edges — a chord, spokes and rim edges of the wheel included.
	{"K4", []byte{3, 6, 4<<5 | 4, 0x01, 0x01, 0x02, 0x00, 0x01, 0x01, 0x23, 0x02,
		0x00, 0x23, 0x01, 0x02, 0x02, 0x01, 0x13, 0x00, 0x13, 0x02}},
	{"K5", []byte{3, 6, 4<<5 | 5, 0x01, 0x04, 0x02, 0x01, 0x12, 0x80, 0x04, 0x02,
		0x00, 0x12, 0x01, 0x23, 0x02, 0x01, 0x01, 0x00, 0x01, 0x02}},
	{"wheel", []byte{3, 6, 3<<5 | 7, 0x00, 0x14, 0x02, 0x01, 0x03, 0x01, 0x56, 0x80, 0x56, 0x02,
		0x00, 0x03, 0x01, 0x14, 0x02, 0x01, 0x12, 0x02}},
	// The dense bases the decoder reaches in one byte: K16 at depth 3 and
	// K8 at depth 4, both uniformly labelled and with the three labels,
	// losing, relabelling and regaining edges.
	{"K16 depth 3", []byte{2, 0, 4<<5 | 16, 0x01, 0x01, 0x02, 0x00, 0x01, 0x01, 0x2f, 0x02, 0x00, 0x2f, 0x02}},
	{"K16 depth 3, three labels", []byte{2, 6, 4<<5 | 16, 0x01, 0x01, 0x01, 0x9a, 0x02, 0x00, 0x01, 0x80, 0x9a, 0x02}},
	{"K8 depth 4", []byte{3, 0, 4<<5 | 8, 0x01, 0x01, 0x02, 0x00, 0x01, 0x01, 0x27, 0x02, 0x00, 0x27, 0x02}},
	{"K8 depth 4, three labels", []byte{3, 6, 4<<5 | 8, 0x01, 0x01, 0x01, 0x56, 0x02, 0x00, 0x01, 0x80, 0x56, 0x02}},
}

// FuzzRecountMatchesForest decodes a start graph and a change-set schedule
// (fuzzsched, one stream; query ops are skipped) and checks, after every
// timestamp, that the recounting Store and a Space observing a patched
// Forest agree on the node count and on whether the timestamp failed
// (label conflicts included: both apply the same prefix, in the same
// order), and that the store's seal meets sealCheck's contract against the
// forest's vectors.
func FuzzRecountMatchesForest(f *testing.F) {
	for _, seed := range scheduleSeeds {
		f.Add(seed.data)
	}
	r := rand.New(rand.NewSource(25))
	for i := 0; i < 8; i++ {
		b := make([]byte, 16+r.Intn(48))
		r.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := fuzzsched.Decode(data, 1, MaxDepth)
		st := NewStore(sc.Streams[0], sc.Depth)
		sp := NewSpace()
		fo := nnt.NewForest(sc.Streams[0], sc.Depth, sp)
		var c sealCheck
		c.check(t, "build", st, st.SealDirty(), snapshot(sp))
		for i, op := range sc.Ops {
			if op.Kind != fuzzsched.Step {
				continue
			}
			cs := op.Changes[0]
			serr := st.Apply(cs)
			ferr := fo.ApplySet(cs)
			at := fmt.Sprintf("op %d %v", i, cs)
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

// snapshot deep-copies every vector of a space.
func snapshot(sp *Space) map[graph.VertexID]Vector {
	out := make(map[graph.VertexID]Vector, sp.Len())
	for v, vec := range sp.vectors {
		out[v] = vec.Clone()
	}
	return out
}
