package npv

import (
	"cmp"
	"fmt"
	"slices"

	"nntstream/internal/graph"
)

// closedDepth is the deepest level Store counts by the closed form.
const closedDepth = 3

// Store keeps the node-projected vectors of one evolving graph by
// recounting them, without materializing a single node-neighbor tree. The
// NPV of a vertex counts, per dimension, the tree edges of its depth-l NNT
// (Section IV-A), and a tree edge is just the last edge of an edge-distinct
// walk of length ≤ l from the root. Up to length 3 such a walk is exactly a
// non-backtracking one (reusing an edge takes 4, as r→a→b→r→a does), so
// with Tk(r) the triples ⟨label x, edge label, label y⟩ of the last edges
// x→y of r's k-walks — the vector's level k — the counts obey
//
//	T1(r) = the triples of r's incident edges, oriented away from r
//	T2(r) = Σ_{a∈N(r)} T1(a) − rev(r)    rev(r): the same edges, reversed
//	T3(r) = Σ_{a∈N(r)} T2(a) − (deg(r)−1)·T1(r)
//
// Each vertex keeps one tally list per level: counts of triples interned
// when edges are linked, sorted by the Dim each triple maps to at that
// level. A level up to 3 sums the neighbours' previous one in a dense
// scratch array, without hashing. From level 4 on a walk can reuse an edge
// and the recurrence over-counts, so there the store enumerates each root's
// walks into the same scratch.
//
// Store owns its graph. Apply advances it by one timestamp's change set:
//
//  1. it collects the affected roots with their hop distance — every vertex
//     within l−1 hops of a deleted edge's endpoint in the pre-state graph,
//     and every vertex within l−1 hops of an inserted edge's endpoint in
//     the post-state graph (created and retired vertices are such
//     endpoints). The set is sound: level k of a root changes only through
//     a k-walk that uses a changed edge, and that walk reaches the edge's
//     first endpoint within k−1 edges of the graph it lives in;
//  2. it applies the change set to the graph, deletions first;
//  3. for k = 1..l it recounts level k of each affected root within k−1
//     hops, after every neighbour's level k−1;
//  4. it marks a root dirty only if a level actually moved (or it appeared
//     or retired), so SealDirty and everything keyed on it see exactly the
//     vertices whose vector moved.
//
// A vector exists in packed form only: SealDirty concatenates each dirty
// vertex's level lists into a fresh PackedVector, which Packed and
// PackedVectors serve until the vertex next moves. Recounting pays once per
// affected root per timestamp for its final counts, where patching an
// nnt.Forest pays for every intermediate tree.
type Store struct {
	depth int
	verts map[graph.VertexID]*vnode
	// dirty lists the vertices to reseal, each once. free holds the
	// vnodes of vertices retired at a seal, for reuse with their buffers.
	dirty, free []*vnode
	// nodes is Σ_v (1 + L1(NPV_v)) — the node count of the depth-l NNTs the
	// vectors project (a root plus one node per tree edge). Creating and
	// retiring a vertex and recounting its levels adjust it from the L1 the
	// vnode keeps, so reading it walks nothing.
	nodes int

	// Per-timestamp scratch, reused across Apply calls. stamp marks the
	// vertices one breadth-first sweep has reached; round marks the
	// vertices already queued for recounting this timestamp.
	stamp, round uint32
	affected     []*vnode
	sources      []*vnode
	cur, next    []*vnode

	// tris[id] is triple id as a level-0 Dim, triID its inverse. acc sums
	// one level of one root, touched[:nt] lists its nonzero ids, and sums
	// gathers them for a vnode (all three sized to the triple count).
	tris    []Dim
	triID   map[Dim]uint32
	acc     []int32
	touched []uint32
	nt      int
	sums    []tally

	// path[0..k] is the walk the level-4+ enumerator is on.
	path []*vnode
}

// vnode is one vertex of the store's graph: its label and adjacency, with
// each neighbor held by pointer so counting never hashes, its level lists
// and its last sealed vector.
type vnode struct {
	id     graph.VertexID
	label  graph.Label
	adj    []half
	lv     [][]tally    // lv[k-1]: level k, sorted by Dim
	packed PackedVector // the vector as of the last seal
	l1     int          // L1 of its levels
	seen   uint32       // stamp of the last sweep that reached it
	queued uint32       // round in which it was queued for recounting
	hop    int          // its least hop distance from a changed edge that round
	// retired: isolated by this timestamp's deletions so far. live: counted
	// in nodes, so the next seal gives it a vector. sealed: it had one at
	// the last seal. dirty: it is on Store.dirty.
	retired, live, sealed, dirty bool
}

// half is one direction of an undirected edge, with its triple and the reverse's.
type half struct {
	to        *vnode
	el        graph.Label
	tri, rtri uint32
}

// tally is one triple's count at one level of a vertex.
type tally struct {
	tri uint32
	n   int32
}

// NewStore builds the store of an initial graph; g is not retained. depth is
// the paper's l and must be ≥ 1. Every vertex starts dirty, so the first
// SealDirty reports each one as added.
func NewStore(g *graph.Graph, depth int) *Store {
	if depth < 1 {
		panic(fmt.Sprintf("npv: depth must be ≥ 1, got %d", depth))
	}
	s := &Store{
		depth: depth,
		verts: make(map[graph.VertexID]*vnode, g.VertexCount()),
		triID: make(map[Dim]uint32),
		path:  make([]*vnode, depth+1),
	}
	g.Vertices(func(v graph.VertexID, l graph.Label) bool {
		n := s.newVnode(v, l)
		s.affected = append(s.affected, n)
		return true
	})
	for _, v := range s.affected {
		g.Neighbors(v.id, func(u graph.VertexID, el graph.Label) bool {
			v.adj = append(v.adj, s.halfTo(v, s.verts[u], el))
			return true
		})
	}
	s.refresh()
	return s
}

// ProjectPacked returns the packed NPVs of a static graph at depth l, one
// per vertex in ascending vertex order, empty vectors included. It is the
// one-shot path for query graphs, which are projected once at registration.
func ProjectPacked(g *graph.Graph, depth int) []PackedVector {
	deltas := NewStore(g, depth).SealDirty()
	out := make([]PackedVector, len(deltas))
	for i, dl := range deltas {
		out[i] = dl.New
	}
	return out
}

// ProjectGraph returns the NPVs of a static graph at depth l in map form,
// the form the forest-side reference code compares.
func ProjectGraph(g *graph.Graph, depth int) map[graph.VertexID]Vector {
	out := make(map[graph.VertexID]Vector, g.VertexCount())
	for _, dl := range NewStore(g, depth).SealDirty() {
		out[dl.Vertex] = dl.New.Unpack()
	}
	return out
}

// Nodes returns the number of NNT nodes the stored vectors project,
// Σ_v (1 + L1(NPV_v)) — what nnt.Forest.TotalNodes reports for the same
// graph, at O(1).
func (s *Store) Nodes() int { return s.nodes }

// Len reports the number of vertices; after a seal, the number of vectors.
func (s *Store) Len() int { return len(s.verts) }

// Packed returns the vector of v sealed at the last SealDirty, and false
// when v had none. It never packs, so concurrent readers between seals are
// safe.
func (s *Store) Packed(v graph.VertexID) (PackedVector, bool) {
	if n := s.verts[v]; n != nil && n.sealed {
		return n.packed, true
	}
	return PackedVector{}, false
}

// PackedVectors calls fn for every (vertex, vector) pair of the last seal.
// Iteration order is unspecified; fn returning false stops iteration.
func (s *Store) PackedVectors(fn func(v graph.VertexID, p PackedVector) bool) {
	for v, n := range s.verts {
		if n.sealed && !fn(v, n.packed) {
			return
		}
	}
}

// SealDirty returns one DirtyDelta per vertex whose vector moved (or which
// appeared or retired) since the previous call, in ascending vertex order,
// and makes each New the vertex's sealed vector. Old is the vector the
// previous seal exposed to evaluation, so (Old, New) is the precise input
// the query dominance index (internal/qindex) prunes candidates with. New
// is the concatenation of the vertex's level lists in freshly allocated
// slices: a sealed vector is never written again, so readers may keep it
// across seals.
func (s *Store) SealDirty() []DirtyDelta {
	if len(s.dirty) == 0 {
		return nil
	}
	slices.SortFunc(s.dirty, func(a, b *vnode) int { return cmp.Compare(a.id, b.id) })
	out := make([]DirtyDelta, len(s.dirty))
	for i, v := range s.dirty {
		out[i] = DirtyDelta{Vertex: v.id, Old: v.packed, HadOld: v.sealed, HasNew: v.live}
		if v.live {
			out[i].New = s.pack(v)
		}
		v.packed, v.sealed, v.dirty = out[i].New, v.live, false
		if !v.live {
			delete(s.verts, v.id)
			s.free = append(s.free, v)
		}
		s.dirty[i] = nil
	}
	s.dirty = s.dirty[:0]
	return out
}

// pack concatenates v's level lists into a new packed vector.
func (s *Store) pack(v *vnode) PackedVector {
	n := 0
	for _, l := range v.lv {
		n += len(l)
	}
	p := PackedVector{dims: make([]Dim, 0, n), counts: make([]int32, 0, n)}
	for k, l := range v.lv {
		level := Dim(k+1) << 48
		for _, t := range l {
			d := s.tris[t.tri] | level
			p.dims = append(p.dims, d)
			p.counts = append(p.counts, t.n)
			p.sig |= sigBit(d)
		}
	}
	return p
}

// Apply advances the store by one timestamp: deletions before insertions,
// as ChangeSet.Normalize orders them, with Forest.ApplySet's semantics —
// deleting an absent edge and re-inserting a present one are no-ops, an
// insertion creates missing endpoints, a deletion retires endpoints left
// isolated, and ops of unknown kind are dropped. An insertion that would
// relabel a vertex or add a self-loop fails with an error naming the
// vertex; the ops before it stay applied and counted, so the store remains
// consistent with its graph.
func (s *Store) Apply(cs graph.ChangeSet) error {
	s.round++
	s.affected = s.affected[:0]

	// Deletions: sweep the pre-state from the endpoints of every edge that
	// exists, then remove them.
	s.sources = s.sources[:0]
	for _, op := range cs {
		if op.Kind != graph.OpDelete {
			continue
		}
		if u, v := s.verts[op.U], s.verts[op.V]; u != nil && v != nil && u.edgeTo(v) >= 0 {
			s.sources = append(s.sources, u, v)
		}
	}
	s.sweep()
	for _, op := range cs {
		if op.Kind == graph.OpDelete {
			s.unlink(op.U, op.V)
		}
	}

	// Insertions: link, then sweep the post-state from the endpoints of
	// every edge actually added.
	s.sources = s.sources[:0]
	var err error
	for _, op := range cs {
		if op.Kind != graph.OpInsert {
			continue
		}
		if err = s.link(op); err != nil {
			break
		}
	}
	s.sweep()
	s.refresh()
	return err
}

// edgeTo returns the index of the half-edge v→u in v's adjacency, or -1.
func (v *vnode) edgeTo(u *vnode) int {
	for i, h := range v.adj {
		if h.to == u {
			return i
		}
	}
	return -1
}

// drop removes the half-edge at index i of v's adjacency.
func (v *vnode) drop(i int) {
	last := len(v.adj) - 1
	v.adj[i] = v.adj[last]
	v.adj[last] = half{}
	v.adj = v.adj[:last]
}

// unlink deletes edge {a,b} when present and marks endpoints it leaves
// isolated as retired; refresh clears them unless an insertion revives them.
func (s *Store) unlink(a, b graph.VertexID) {
	u, v := s.verts[a], s.verts[b]
	if u == nil || v == nil {
		return
	}
	i := u.edgeTo(v)
	if i < 0 {
		return
	}
	u.drop(i)
	v.drop(v.edgeTo(u))
	u.retired, v.retired = len(u.adj) == 0, len(v.adj) == 0
}

// link applies one insertion, creating missing endpoints (or reviving
// retired ones, under the op's labels), and records the endpoints of a new
// edge as post-state sweep sources. It validates before mutating.
func (s *Store) link(op graph.ChangeOp) error {
	if op.U == op.V {
		return fmt.Errorf("npv: self-loop on vertex %d", op.U)
	}
	u, v := s.verts[op.U], s.verts[op.V]
	if u != nil && !u.retired && u.label != op.ULabel {
		return fmt.Errorf("npv: vertex %d relabel %d→%d not supported", op.U, u.label, op.ULabel)
	}
	if v != nil && !v.retired && v.label != op.VLabel {
		return fmt.Errorf("npv: vertex %d relabel %d→%d not supported", op.V, v.label, op.VLabel)
	}
	u, v = s.revive(u, op.U, op.ULabel), s.revive(v, op.V, op.VLabel)
	if u.edgeTo(v) >= 0 {
		return nil // idempotent re-insert
	}
	u.adj = append(u.adj, s.halfTo(u, v, op.EdgeLabel))
	v.adj = append(v.adj, s.halfTo(v, u, op.EdgeLabel))
	s.sources = append(s.sources, u, v)
	return nil
}

// revive returns v, or a new vnode of id when v is nil, live under label l.
func (s *Store) revive(v *vnode, id graph.VertexID, l graph.Label) *vnode {
	if v == nil {
		v = s.newVnode(id, l)
	}
	v.label, v.retired = l, false
	return v
}

// newVnode registers a vertex with empty levels; refresh counts it. It
// reuses a vnode retired at a seal when there is one: nothing points at it,
// and its edges, levels and sealed vector are already empty.
func (s *Store) newVnode(id graph.VertexID, l graph.Label) *vnode {
	var v *vnode
	if n := len(s.free); n > 0 {
		v, s.free = s.free[n-1], s.free[:n-1]
	} else {
		v = &vnode{lv: make([][]tally, s.depth)}
	}
	v.id, v.label = id, l
	s.verts[id] = v
	return v
}

// halfTo returns the half-edge u→v labelled el, interning its triples.
func (s *Store) halfTo(u, v *vnode, el graph.Label) half {
	return half{v, el, s.intern(NewDim(0, u.label, el, v.label)), s.intern(NewDim(0, v.label, el, u.label))}
}

// intern returns the id of triple d, growing the scratch with the triples.
func (s *Store) intern(d Dim) uint32 {
	id, ok := s.triID[d]
	if !ok {
		id = uint32(len(s.tris))
		s.triID[d] = id
		s.tris = append(s.tris, d)
		s.acc = append(s.acc, 0)
		s.touched = append(s.touched, 0)
		s.sums = append(s.sums, tally{})
	}
	return id
}

// queue adds v to this timestamp's recount list once, keeping its least
// hop distance.
func (s *Store) queue(v *vnode, hop int) {
	if v.queued != s.round {
		v.queued, v.hop = s.round, hop
		s.affected = append(s.affected, v)
	} else if hop < v.hop {
		v.hop = hop
	}
}

// sweep queues every vertex within depth−1 hops of s.sources in the
// current graph: one breadth-first search from all sources at once.
func (s *Store) sweep() {
	s.stamp++
	cur := s.cur[:0]
	for _, v := range s.sources {
		if v.seen != s.stamp {
			v.seen = s.stamp
			s.queue(v, 0)
			cur = append(cur, v)
		}
	}
	next := s.next[:0]
	for hop := 1; hop < s.depth && len(cur) > 0; hop++ {
		next = next[:0]
		for _, v := range cur {
			for _, h := range v.adj {
				if u := h.to; u.seen != s.stamp {
					u.seen = s.stamp
					s.queue(u, hop)
					next = append(next, u)
				}
			}
		}
		cur, next = next, cur
	}
	s.cur, s.next = cur[:0], next[:0]
}

// refresh brings every affected vertex's levels up to date: it clears the
// vertices still retired, registers created ones, and recounts the rest,
// level by level, dirtying each whose levels moved.
func (s *Store) refresh() {
	for _, v := range s.affected {
		switch {
		case v.retired && v.live:
			s.nodes -= 1 + v.l1
			v.live, v.l1 = false, 0
			for k := range v.lv {
				v.lv[k] = v.lv[k][:0]
			}
			s.markDirty(v)
		case !v.retired && !v.live:
			v.live = true
			s.nodes++
			s.markDirty(v)
		}
	}
	for k := 1; k <= s.depth; k++ {
		for _, v := range s.affected {
			if v.hop >= k || v.retired {
				continue
			}
			if k <= closedDepth {
				s.sum(v, k)
			} else {
				s.path[0] = v
				s.walk(0, k)
			}
			sums, moved := s.settle(v, k)
			if !moved {
				continue
			}
			delta := 0
			for _, t := range v.lv[k-1] {
				delta -= int(t.n)
			}
			for _, t := range sums {
				delta += int(t.n)
			}
			v.lv[k-1] = append(v.lv[k-1][:0], sums...)
			v.l1 += delta
			s.nodes += delta
			s.markDirty(v)
		}
	}
}

// markDirty queues v for the next seal once.
func (s *Store) markDirty(v *vnode) {
	if !v.dirty {
		v.dirty = true
		s.dirty = append(s.dirty, v)
	}
}

// sum adds level k of v's triple counts up in the scratch by the
// recurrence: from v's edges at k = 1, else from its neighbours' level k−1.
//
//nnt:hotpath
func (s *Store) sum(v *vnode, k int) {
	if k == 1 {
		for _, h := range v.adj {
			s.add(h.tri, 1)
		}
		return
	}
	for _, h := range v.adj {
		for _, t := range h.to.lv[k-2] {
			s.add(t.tri, t.n)
		}
	}
	if k == 2 {
		for _, h := range v.adj {
			s.acc[h.rtri]--
		}
		return
	}
	back := int32(len(v.adj) - 1)
	for _, t := range v.lv[0] {
		s.acc[t.tri] -= back * t.n
	}
}

// add adds n to triple t's sum. The recurrence subtracts only from triples
// its additions touched, so touched lists every nonzero sum.
//
//nnt:hotpath
func (s *Store) add(t uint32, n int32) {
	if s.acc[t] == 0 {
		s.touched[s.nt] = t
		s.nt++
	}
	s.acc[t] += n
}

// settle gathers the scratch sums — level k of v — and clears the scratch.
// When they differ from v's level k it returns them sorted by Dim, valid
// until the next settle, and true. Only a changed support is sorted: when
// just counts moved, the sums take the old level's order.
//
//nnt:hotpath
func (s *Store) settle(v *vnode, k int) ([]tally, bool) {
	n := 0
	for _, t := range s.touched[:s.nt] {
		if c := s.acc[t]; c != 0 {
			s.sums[n] = tally{t, c}
			n++
		}
	}
	old := v.lv[k-1]
	kept, moved := n == len(old), n != len(old)
	for i := 0; kept && i < len(old); i++ {
		c := s.acc[old[i].tri]
		kept, moved = c != 0, moved || c != old[i].n
	}
	if kept && moved {
		for i, t := range old {
			s.sums[i] = tally{t.tri, s.acc[t.tri]}
		}
	}
	for _, t := range s.touched[:s.nt] {
		s.acc[t] = 0
	}
	s.nt = 0
	if !moved {
		return nil, false
	}
	sums := s.sums[:n]
	if !kept {
		slices.SortFunc(sums, func(a, b tally) int { return cmp.Compare(s.tris[a.tri], s.tris[b.tri]) })
	}
	return sums, true
}

// walk adds to the scratch the last edge of every edge-distinct walk of
// length k that extends path[0..level]: each incident edge of path[level]
// not already on the walk extends it by one step. Level k ≥ 4 is counted
// this way, where a walk can reuse an edge and the closed form over-counts.
//
//nnt:hotpath
func (s *Store) walk(level, k int) {
	v := s.path[level]
	for _, h := range v.adj {
		switch {
		case s.onPath(level, v, h.to):
		case level+1 == k:
			s.add(h.tri, 1)
		default:
			s.path[level+1] = h.to
			s.walk(level+1, k)
		}
	}
}

// onPath reports whether edge {v,u} is one of the level edges of the walk
// path[0..level]. Walks are at most l long, so the scan is O(l).
//
//nnt:hotpath
func (s *Store) onPath(level int, v, u *vnode) bool {
	for i := 0; i < level; i++ {
		a, b := s.path[i], s.path[i+1]
		if (a == v && b == u) || (a == u && b == v) {
			return true
		}
	}
	return false
}
