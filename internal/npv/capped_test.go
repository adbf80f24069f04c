package npv

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"nntstream/internal/fuzzsched"
	"nntstream/internal/graph"
	"nntstream/internal/nnt"
)

// capTable is a cap function a test can change: one cap for every
// dimension, and overrides.
type capTable struct {
	def  int32
	over map[Dim]int32
}

func (c *capTable) cap(d Dim) int32 {
	if n, ok := c.over[d]; ok {
		return n
	}
	return c.def
}

// capped returns every vector of m with each count capped, dimensions
// capped at 0 dropped.
func (c *capTable) capped(m map[graph.VertexID]Vector) map[graph.VertexID]Vector {
	out := make(map[graph.VertexID]Vector, len(m))
	for v, vec := range m {
		cv := make(Vector, len(vec))
		for d, n := range vec {
			if n = min(n, c.cap(d)); n > 0 {
				cv[d] = n
			}
		}
		out[v] = cv
	}
	return out
}

// cappedCheck holds the capped reference vectors of the last seal, the
// vertices present at some timestamp since, and the vectors the last three
// seals produced, each with a private copy.
type cappedCheck struct {
	prev   map[graph.VertexID]Vector
	seen   map[graph.VertexID]bool
	recent [][][2]PackedVector
}

// note records the vertices present in the reference at a timestamp.
func (c *cappedCheck) note(ref map[graph.VertexID]Vector) {
	if c.seen == nil {
		c.seen = make(map[graph.VertexID]bool)
	}
	for v := range ref {
		c.seen[v] = true
	}
}

// check is the capped seal contract: deltas lists, ascending, exactly the
// vertices whose capped reference vector differs between the last seal and
// cur, presence included, plus every ghost — a vertex present at some
// timestamp in between but at neither seal; Old and New are Pack of the
// two capped references and Moves their Diff; the store then
// serves cur; and every vector sealed three seals ago still equals the copy
// taken when it was sealed.
func (c *cappedCheck) check(t *testing.T, at string, st *Store, deltas []DirtyDelta, cur map[graph.VertexID]Vector) {
	t.Helper()
	want := changedVertices(c.prev, cur)
	for v := range c.seen {
		_, had := c.prev[v]
		if _, has := cur[v]; !had && !has {
			want = append(want, v)
		}
	}
	slices.Sort(want)
	if len(deltas) != len(want) {
		t.Fatalf("%s: sealed %d vertices; want %v", at, len(deltas), want)
	}
	var kept [][2]PackedVector
	for i, dl := range deltas {
		v := want[i]
		old, hadOld := c.prev[v]
		vec, hasNew := cur[v]
		if dl.Vertex != v || dl.HadOld != hadOld || dl.HasNew != hasNew || !dl.Old.Equal(Pack(old)) || !dl.New.Equal(Pack(vec)) {
			t.Fatalf("%s: delta %d = %+v; want vertex %d, old %v (%v), new %v (%v)", at, i, dl, v, old, hadOld, vec, hasNew)
		}
		if moves, _ := Diff(nil, dl.Old, dl.New); !slices.Equal(dl.Moves, moves) {
			t.Fatalf("%s: delta of %d moves %v; Diff gives %v", at, v, dl.Moves, moves)
		}
		if hasNew {
			kept = append(kept, [2]PackedVector{dl.New, Pack(vec)})
		}
		checkCountsPositive(t, at, dl)
	}
	n := 0
	st.PackedVectors(func(v graph.VertexID, p PackedVector) bool {
		n++
		if !p.Equal(Pack(cur[v])) {
			t.Fatalf("%s: vertex %d serves %v; want %v", at, v, p, cur[v])
		}
		return true
	})
	if n != len(cur) {
		t.Fatalf("%s: serves %d vectors; want %d", at, n, len(cur))
	}
	if c.recent = append(c.recent, kept); len(c.recent) > 3 {
		for _, k := range c.recent[0] {
			if !k[0].Equal(k[1]) {
				t.Fatalf("%s: a vector sealed three seals ago now reads %v; sealed as %v", at, k[0], k[1])
			}
		}
		c.recent = c.recent[1:]
	}
	c.prev, c.seen = cur, nil
	c.note(cur)
}

// FuzzCappedSeal drives a capped Store through the change sets of a
// fuzzsched schedule (one stream; query ops are skipped) while the caps
// move, against a Space observing a patched Forest whose vectors are capped
// by the same table. The second input steers the caps: its first byte is
// the cap of every dimension, and each timestamp then reads one byte whose
// low two bits raise, lower or zero the cap of a dimension the next four
// bytes name (followed by ResetCaps, as a filter does when a query moves a
// cap), and whose bit 2 skips the seal, so two timestamps meet one seal
// and a vertex can appear and retire in between. After every seal,
// cappedCheck's contract must hold.
func FuzzCappedSeal(f *testing.F) {
	// Each named schedule seed, with caps that raise, lower and zero caps
	// at every level and skip seals.
	for i, seed := range scheduleSeeds {
		f.Add(seed.data, []byte{byte(1 + i%3), 1, 3, 0, 1, 2, 0, 2, 3, 1, 1, 0, 4, 3, 2, 0, 1, 3, 3, 1, 2, 1})
	}
	// The path, with one cap raised; the star, whose rewrites raise, lower
	// and zero the hub's level-1 caps.
	f.Add(scheduleSeeds[1].data, []byte{1, 1, 0, 0, 1, 0, 2})
	f.Add(scheduleSeeds[2].data, []byte{3, 1, 0, 0, 0, 1, 2, 0, 0, 1, 0, 3, 0, 0, 0, 1, 4})
	// The path 0–1–2 loses edge 1–2, retiring vertex 2; it comes back and
	// retires again with the seal between them skipped: a ghost.
	f.Add([]byte{2, 6, 1<<5 | 3, 0x01, 0x12, 0x02, 0x00, 0x12, 0x02, 0x01, 0x12, 0x02}, []byte{1, 0, 4, 0})
	r := rand.New(rand.NewSource(41))
	for i := 0; i < 8; i++ {
		b, c := make([]byte, 16+r.Intn(48)), make([]byte, 4+r.Intn(24))
		r.Read(b)
		r.Read(c)
		f.Add(b, c)
	}
	f.Fuzz(func(t *testing.T, data, caps []byte) {
		next := func() byte {
			if len(caps) == 0 {
				return 0
			}
			b := caps[0]
			caps = caps[1:]
			return b
		}
		sc := fuzzsched.Decode(data, 1, MaxDepth)
		depth, g := sc.Depth, sc.Streams[0]
		ct := &capTable{def: int32(next() % 4), over: make(map[Dim]int32)}
		st := NewCappedStore(g, depth, ct.cap)
		sp := NewSpace()
		fo := nnt.NewForest(g, depth, sp)
		var c cappedCheck
		c.note(sp.vectors)
		c.check(t, "build", st, st.SealDirty(), ct.capped(snapshot(sp)))
		for i, op := range sc.Ops {
			if op.Kind != fuzzsched.Step {
				continue
			}
			cs := op.Changes[0]
			b := next()
			if move := b & 3; move != 0 {
				d := NewDim(1+next()%byte(depth), graph.Label(next()%3), graph.Label(next()%2), graph.Label(next()%3))
				switch move {
				case 1:
					ct.over[d] = ct.cap(d) + 1 + int32(b>>3%3)
				case 2:
					ct.over[d] = max(ct.cap(d)-1, 0)
				case 3:
					ct.over[d] = 0
				}
				st.ResetCaps()
			}
			serr := st.Apply(cs)
			ferr := fo.ApplySet(cs)
			at := fmt.Sprintf("op %d %v caps %d %v", i, cs, ct.def, ct.over)
			if (serr == nil) != (ferr == nil) {
				t.Fatalf("%s: store error %v, forest error %v", at, serr, ferr)
			}
			c.note(sp.vectors)
			if b&4 == 0 {
				c.check(t, at, st, st.SealDirty(), ct.capped(snapshot(sp)))
			}
		}
		c.check(t, "last", st, st.SealDirty(), ct.capped(snapshot(sp)))
	})
}

// TestCappedSealUnmovedAllocsZero: a timestamp whose recount moves only
// counts above the caps seals no vertex and allocates nothing. Two hubs
// share thirty leaves and every cap is 1, so deleting and re-inserting one
// hub–leaf edge moves counts at every vertex but no capped one.
func TestCappedSealUnmovedAllocsZero(t *testing.T) {
	labels := map[graph.VertexID]graph.Label{0: 0, 1: 0}
	var edges [][3]int
	for v := 2; v < 32; v++ {
		labels[graph.VertexID(v)] = 1
		edges = append(edges, [3]int{0, v, 0}, [3]int{1, v, 0})
	}
	st := NewCappedStore(buildGraph(t, labels, edges), 3, func(Dim) int32 { return 1 })
	st.SealDirty()
	steps := [2]graph.ChangeSet{{graph.DeleteOp(0, 5)}, {graph.InsertOp(0, 0, 5, 1, 0)}}
	i, nodes := 0, st.Nodes()
	step := func() {
		if err := st.Apply(steps[i%2]); err != nil {
			t.Fatal(err)
		}
		if deltas := st.SealDirty(); deltas != nil {
			t.Fatalf("step %d sealed %+v; no capped vector moved", i, deltas)
		}
		i++
	}
	step()
	if st.Nodes() == nodes {
		t.Fatal("the steps moved no count; the seal is not exercised")
	}
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Fatalf("an unmoved capped seal allocates %.1f per timestamp", allocs)
	}
}
