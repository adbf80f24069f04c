package fuzzsched

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"nntstream/internal/graph"
)

// TestBase pins each base kind's shape: its vertex and edge counts, and its
// degree sequence where the shape fixes one.
func TestBase(t *testing.T) {
	for _, c := range []struct {
		name     string
		kind     byte
		edges    func(n int) int
		min, max func(n int) int // the least and largest degree
	}{
		{"empty", 0, func(int) int { return 0 }, func(int) int { return 0 }, func(int) int { return 0 }},
		{"path", 1, func(n int) int { return n - 1 }, func(int) int { return 1 }, func(int) int { return 2 }},
		{"star", 2, func(n int) int { return n - 1 }, func(int) int { return 1 }, func(n int) int { return n - 1 }},
		{"wheel", 3, func(n int) int { return 2 * (n - 1) }, func(int) int { return 3 }, func(n int) int { return n - 1 }},
		{"complete", 4, func(n int) int { return n * (n - 1) / 2 }, func(n int) int { return n - 1 }, func(n int) int { return n - 1 }},
	} {
		for n := 4; n < 32; n++ {
			g := base(c.kind<<5|byte(n), 3, 2, 0)
			if g.VertexCount() != n || g.EdgeCount() != c.edges(n) {
				t.Fatalf("%s on %d vertices: %d vertices, %d edges; want %d edges", c.name, n, g.VertexCount(), g.EdgeCount(), c.edges(n))
			}
			lo, hi := n, 0
			for _, v := range g.VertexIDs() {
				lo, hi = min(lo, g.Degree(v)), max(hi, g.Degree(v))
				if l := g.MustVertexLabel(v); int(l) != int(v)%3 {
					t.Fatalf("%s on %d vertices: vertex %d has label %d", c.name, n, v, l)
				}
			}
			if lo != c.min(n) || hi != c.max(n) {
				t.Fatalf("%s on %d vertices: degrees %d–%d; want %d–%d", c.name, n, lo, hi, c.min(n), c.max(n))
			}
		}
	}
	// G(n, p) for p = 1/4, 1/2, 3/4: deterministic per seed, denser with p.
	for n := 0; n < 32; n++ {
		prev := -1
		for kind := byte(5); kind <= 7; kind++ {
			g := base(kind<<5|byte(n), 3, 2, 9)
			if !g.Equal(base(kind<<5|byte(n), 3, 2, 9)) || g.VertexCount() != n {
				t.Fatalf("G(%d, %d/4) is not deterministic, or has %d vertices", n, kind-4, g.VertexCount())
			}
			if n == 30 {
				if g.EdgeCount() <= prev {
					t.Fatalf("G(30, %d/4) has %d edges, no more than at p − 1/4 (%d)", kind-4, g.EdgeCount(), prev)
				}
				prev = g.EdgeCount()
			}
		}
	}
}

// TestDenseBasesInBudget: K16 at depth 3 and K8 at depth 4 are one byte
// each, within the budget; K16 at depth 4 is not, and decodes empty.
func TestDenseBasesInBudget(t *testing.T) {
	for _, c := range []struct {
		depth, n, edges int
	}{{3, 16, 120}, {4, 8, 28}, {4, 16, 0}} {
		sc := Decode([]byte{byte(c.depth - 1), 0, 4<<5 | byte(c.n)}, 1, 4)
		if sc.Depth != c.depth || sc.Streams[0].EdgeCount() != c.edges {
			t.Fatalf("K%d at depth %d: decoded depth %d with %d edges; want %d", c.n, c.depth, sc.Depth, sc.Streams[0].EdgeCount(), c.edges)
		}
	}
}

// TestDecodeProperties decodes random byte strings of every length up to
// 4 KiB, with one and two streams: decoding is deterministic, no schedule
// costs more than Budget, and every step's Applied sets apply cleanly to
// the streams in order, and are Changes in Normalize order when nothing
// fails.
func TestDecodeProperties(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		data := make([]byte, r.Intn(4096))
		r.Read(data)
		streams := 1 + i%2
		sc := Decode(data, streams, 4)
		if !reflect.DeepEqual(sc, Decode(data, streams, 4)) {
			t.Fatalf("input %d: two decodes differ", i)
		}
		if sc.Cost > Budget {
			t.Fatalf("input %d (%d bytes): costs %d, over the budget %d", i, len(data), sc.Cost, Budget)
		}
		graphs := make([]*graph.Graph, streams)
		for s, g := range sc.Streams {
			graphs[s] = g.Clone()
		}
		for k, op := range sc.Ops {
			if op.Kind != Step {
				continue
			}
			for s, cs := range op.Applied {
				if err := cs.Apply(graphs[s]); err != nil {
					t.Fatalf("input %d op %d: stream %d's applied set %v fails: %v", i, k, s, cs, err)
				}
				if len(cs) < len(op.Changes[s]) {
					continue
				}
				// Applied may relabel a re-inserted present edge to its own label.
				same := func(a, b graph.ChangeOp) bool {
					a.EdgeLabel, b.EdgeLabel = 0, 0
					return a == b
				}
				if !slices.EqualFunc(cs, op.Changes[s].Normalize(), same) {
					t.Fatalf("input %d op %d: stream %d applies %v of %v", i, k, s, cs, op.Changes[s])
				}
			}
		}
	}
}

// TestDecodeQueries decodes each query op kind once: a base query, a
// subgraph of a stream, and a removal of the live query it indexes.
func TestDecodeQueries(t *testing.T) {
	// Depth 3, one label; stream 0 is K5, stream 1 the path on 6 vertices.
	// Register K4, then stream 1's subgraph of 1 + 2 edges from its first
	// vertex, then remove the live query 3 mod 2 = 1.
	sc := Decode([]byte{2, 0, 4<<5 | 5, 1<<5 | 6, 0x03, 4<<5 | 4, 0x0b, 2<<4 | 1, 0x07, 3}, 2, 4)
	if len(sc.Ops) != 3 || sc.Ops[0].Kind != AddQuery || sc.Ops[1].Kind != AddQuery || sc.Ops[2].Kind != RemoveQuery {
		t.Fatalf("decoded %+v; want two registrations and a removal", sc.Ops)
	}
	if q := sc.Ops[0].Query; q.VertexCount() != 4 || q.EdgeCount() != 6 {
		t.Fatalf("base query has %d vertices and %d edges; want K4", q.VertexCount(), q.EdgeCount())
	}
	if q := sc.Ops[1].Query; q.VertexCount() != 4 || q.EdgeCount() != 3 || !q.HasEdge(0, 1) || !q.HasEdge(2, 3) {
		t.Fatalf("subgraph query %v; want the path 0–1–2–3", q)
	}
	if sc.Ops[2].Index != 1 {
		t.Fatalf("removal indexes %d; want 1", sc.Ops[2].Index)
	}
}
