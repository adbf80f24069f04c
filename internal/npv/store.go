package npv

import (
	"fmt"
	"maps"

	"nntstream/internal/graph"
)

// closedDepth is the deepest l at which Store counts by the closed form.
const closedDepth = 3

// Store keeps the node-projected vectors of one evolving graph by
// recounting them, without materializing a single node-neighbor tree. The
// NPV of a vertex counts, per dimension, the tree edges of its depth-l NNT
// (Section IV-A), and a tree edge is just the last edge of an edge-distinct
// walk of length ≤ l from the root. Up to l = 3 such a walk is exactly a
// non-backtracking one (reusing an edge takes 4, as r→a→b→r→a does), so
// with Tk(r) the triples ⟨label x, edge label, label y⟩ of the last edges
// x→y of r's k-walks — the vector's level k — the counts obey
//
//	T1(r) = the triples of r's incident edges, oriented away from r
//	T2(r) = Σ_{a∈N(r)} T1(a) − rev(r)    rev(r): the same edges, reversed
//	T3(r) = Σ_{a∈N(r)} T2(a) − (deg(r)−1)·T1(r)
//
// Each vertex keeps its levels as counts of triples interned when edges are
// linked, and a level sums the neighbours' previous one in a dense scratch
// array, without hashing. From l = 4 on a walk can reuse an edge and the
// recurrence over-counts, so there the store enumerates each root's walks.
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
//     hops, after every neighbour's level k−1 (from l = 4 on, it
//     re-enumerates each affected root);
//  4. it marks a root dirty only if its vector actually changed (or it
//     appeared or retired), so TakeDirty/SealDirty and everything keyed on
//     them see exactly the vertices whose vector moved.
//
// Recounting pays once per affected root per timestamp for its final
// counts, where patching an nnt.Forest pays for every intermediate tree.
// Vectors returned by Vector and Vectors are owned by the store and valid
// until the next Apply.
type Store struct {
	vecTable
	depth int
	verts map[graph.VertexID]*vnode
	// nodes is Σ_v (1 + L1(NPV_v)) — the node count of the depth-l NNTs the
	// vectors project (a root plus one node per tree edge). Creating and
	// retiring a vertex and recounting its vector adjust it from the L1 the
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
	// one level of one root, touched[:nt] lists its nonzero ids (both sized
	// to the triple count), and sums stages them for a vnode.
	tris    []Dim
	triID   map[Dim]uint32
	acc     []int32
	touched []uint32
	nt      int
	sums    []tally

	// The l ≥ 4 enumerator: path[0..k] is the walk it is on; count
	// accumulates the root being recounted, and countL1 its total.
	path    []*vnode
	count   Vector
	countL1 int
}

// vnode is one vertex of the store's graph: its label and adjacency, with
// each neighbor held by pointer so counting never hashes.
type vnode struct {
	id      graph.VertexID
	label   graph.Label
	adj     []half
	vec     Vector               // its entry in vectors, nil until first counted
	lv      [closedDepth][]tally // lv[k-1]: level k of vec as triple counts
	l1      int                  // L1 of its vector as last recounted
	seen    uint32               // stamp of the last sweep that reached it
	queued  uint32               // round in which it was queued for recounting
	hop     int                  // its least hop distance from a changed edge that round
	retired bool                 // isolated by this timestamp's deletions so far
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
// the paper's l and must be ≥ 1. Every vertex starts dirty, as a fresh Space
// observing a fresh forest does.
func NewStore(g *graph.Graph, depth int) *Store {
	if depth < 1 {
		panic(fmt.Sprintf("npv: depth must be ≥ 1, got %d", depth))
	}
	s := &Store{
		vecTable: newVecTable(),
		depth:    depth,
		verts:    make(map[graph.VertexID]*vnode, g.VertexCount()),
		triID:    make(map[Dim]uint32),
		path:     make([]*vnode, depth+1),
		count:    make(Vector),
	}
	g.Vertices(func(v graph.VertexID, l graph.Label) bool {
		n := &vnode{id: v, label: l}
		s.verts[v] = n
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

// ProjectGraph returns the NPVs of a static graph at depth l. It is the
// one-shot path for query graphs, which are projected once at registration.
func ProjectGraph(g *graph.Graph, depth int) map[graph.VertexID]Vector {
	return NewStore(g, depth).vectors
}

// Nodes returns the number of NNT nodes the stored vectors project,
// Σ_v (1 + L1(NPV_v)) — what nnt.Forest.TotalNodes reports for the same
// graph, at O(1).
func (s *Store) Nodes() int { return s.nodes }

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
// isolated as retired; refresh drops them unless an insertion revives them.
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

// link applies one insertion, creating missing endpoints (or reviving ones
// this timestamp retired, under the op's labels), and records the endpoints
// of a new edge as post-state sweep sources. It validates before mutating.
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
		v = &vnode{id: id}
		s.verts[id] = v
	}
	v.label, v.retired = l, false
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

// refresh brings every affected vertex's vector up to date: it drops the
// vertices still retired, registers created ones, and recounts the rest.
func (s *Store) refresh() {
	for _, v := range s.affected {
		switch {
		case v.retired:
			delete(s.verts, v.id)
			delete(s.vectors, v.id)
			s.dirty[v.id] = struct{}{}
			s.nodes -= 1 + v.l1
		case v.vec == nil:
			v.vec = make(Vector)
			s.vectors[v.id] = v.vec
			s.dirty[v.id] = struct{}{}
			s.nodes++
		}
	}
	if s.depth > closedDepth {
		for _, v := range s.affected {
			if !v.retired {
				s.recount(v)
			}
		}
		return
	}
	for k := 1; k <= s.depth; k++ {
		for _, v := range s.affected {
			if v.hop < k && !v.retired {
				s.sum(v, k)
				s.settle(v, k)
			}
		}
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

// settle makes the scratch sums level k of v's counts. When they moved, it
// writes just the moved dimensions into v's vector and dirties v; either
// way it clears the scratch.
func (s *Store) settle(v *vnode, k int) {
	s.sums = s.sums[:0]
	for _, t := range s.touched[:s.nt] {
		if n := s.acc[t]; n != 0 {
			s.sums = append(s.sums, tally{t, n})
		}
	}
	old := v.lv[k-1]
	same := len(s.sums) == len(old)
	for i := 0; same && i < len(old); i++ {
		same = s.acc[old[i].tri] == old[i].n
	}
	if !same {
		level, delta := Dim(k)<<48, 0
		for _, t := range old {
			delta -= int(t.n)
			switch s.acc[t.tri] {
			case 0:
				delete(v.vec, s.tris[t.tri]|level)
			case t.n:
				s.acc[t.tri] = 0 // same count: nothing to write
			}
		}
		for _, t := range s.sums {
			delta += int(t.n)
			if s.acc[t.tri] != 0 {
				v.vec[s.tris[t.tri]|level] = t.n
			}
		}
		v.lv[k-1] = append(old[:0], s.sums...)
		v.l1 += delta
		s.nodes += delta
		s.dirty[v.id] = struct{}{}
	}
	for _, t := range s.touched[:s.nt] {
		s.acc[t] = 0
	}
	s.nt = 0
}

// recount enumerates v's edge-distinct walks afresh (l ≥ 4) and records the
// vector, dirtying v only when it changed.
func (s *Store) recount(v *vnode) {
	clear(s.count)
	s.countL1 = 0
	s.path[0] = v
	s.walk(0)
	s.nodes += s.countL1 - v.l1
	v.l1 = s.countL1
	if !v.vec.Equal(s.count) {
		clear(v.vec)
		maps.Copy(v.vec, s.count)
		s.dirty[v.id] = struct{}{}
	}
}

// walk counts every tree edge below path[level]: each incident edge not
// already on the root→path[level] walk extends it by one edge-distinct
// step, contributing one unit to the dimension ⟨level+1, parent label, edge
// label, child label⟩, and the extension recurses until depth l.
//
//nnt:hotpath
func (s *Store) walk(level int) {
	v := s.path[level]
	for _, h := range v.adj {
		if s.onPath(level, v, h.to) {
			continue
		}
		s.count[NewDim(byte(level+1), v.label, h.el, h.to.label)]++
		s.countL1++
		if level+1 < s.depth {
			s.path[level+1] = h.to
			s.walk(level + 1)
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
