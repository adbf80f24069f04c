package npv

import (
	"fmt"

	"nntstream/internal/graph"
)

// Store keeps the node-projected vectors of one evolving graph by
// recounting them, without materializing a single node-neighbor tree. The
// NPV of a vertex counts, per dimension, the tree edges of its depth-l NNT
// (Section IV-A), and a tree edge is just the last edge of an edge-distinct
// path of length ≤ l from the root — so the vector can be counted straight
// off the graph by enumerating those paths, which is the NNT's definition.
//
// Store owns its graph. Apply advances it by one timestamp's change set:
//
//  1. it collects the affected roots — every vertex within l−1 hops of a
//     deleted edge's endpoint in the pre-state graph, and every vertex
//     within l−1 hops of an inserted edge's endpoint in the post-state
//     graph (created and retired vertices are such endpoints). The set is
//     sound: a root's NNT changes only through a path that uses a changed
//     edge, and the prefix of that path up to the edge's first endpoint is
//     a walk of at most l−1 edges in the graph the path lives in;
//  2. it applies the change set to the graph, deletions first;
//  3. it recounts each affected root's vector into a reused scratch map;
//  4. it marks a root dirty only if its vector actually changed (or it
//     appeared or retired), so TakeDirty/SealDirty and everything keyed on
//     them see exactly the vertices whose vector moved.
//
// Patching a forest edge op by edge op (nnt.Forest with a Space observing)
// pays for every intermediate tree: a timestamp that rewrites many of a
// root's paths builds and tears down subtrees the next op discards again,
// and every node is a heap object. Recounting pays once per affected root
// per timestamp for its final paths, and keeps no per-path state at all.
//
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
	affected     []graph.VertexID
	sources      []*vnode
	cur, next    []*vnode
	// path[0..k] is the walk the enumerator is on; count accumulates the
	// root being recounted, and countL1 its total.
	path    []*vnode
	count   Vector
	countL1 int
}

// vnode is one vertex of the store's graph: its label and adjacency, with
// each neighbor held by pointer so path enumeration never hashes.
type vnode struct {
	id     graph.VertexID
	label  graph.Label
	adj    []half
	seen   uint32 // stamp of the last sweep that reached it
	queued uint32 // round in which it was queued for recounting
	l1     int    // L1 of its vector as last recounted
}

// half is one direction of an undirected edge.
type half struct {
	to *vnode
	el graph.Label
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
		path:     make([]*vnode, depth+1),
		count:    make(Vector),
	}
	g.Vertices(func(v graph.VertexID, l graph.Label) bool {
		s.verts[v] = &vnode{id: v, label: l}
		return true
	})
	s.nodes = len(s.verts)
	for _, v := range s.verts {
		g.Neighbors(v.id, func(u graph.VertexID, el graph.Label) bool {
			v.adj = append(v.adj, half{to: s.verts[u], el: el})
			return true
		})
	}
	for id := range s.verts {
		s.recount(id)
	}
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

	for _, id := range s.affected {
		s.recount(id)
	}
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

// unlink deletes edge {a,b} when present and retires endpoints it leaves
// isolated. Retired vertices were queued by the pre-state sweep.
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
	for _, w := range [2]*vnode{u, v} {
		if len(w.adj) == 0 {
			delete(s.verts, w.id)
			s.nodes -= 1 + w.l1
		}
	}
}

// link applies one insertion, creating missing endpoints, and records the
// endpoints of a new edge as post-state sweep sources (a created vertex is
// always one). It validates before mutating anything.
func (s *Store) link(op graph.ChangeOp) error {
	if op.U == op.V {
		return fmt.Errorf("npv: self-loop on vertex %d", op.U)
	}
	u, v := s.verts[op.U], s.verts[op.V]
	if u != nil && u.label != op.ULabel {
		return fmt.Errorf("npv: vertex %d relabel %d→%d not supported", op.U, u.label, op.ULabel)
	}
	if v != nil && v.label != op.VLabel {
		return fmt.Errorf("npv: vertex %d relabel %d→%d not supported", op.V, v.label, op.VLabel)
	}
	if u == nil {
		u = &vnode{id: op.U, label: op.ULabel}
		s.verts[op.U] = u
		s.nodes++
	}
	if v == nil {
		v = &vnode{id: op.V, label: op.VLabel}
		s.verts[op.V] = v
		s.nodes++
	}
	if u.edgeTo(v) >= 0 {
		return nil // idempotent re-insert
	}
	u.adj = append(u.adj, half{to: v, el: op.EdgeLabel})
	v.adj = append(v.adj, half{to: u, el: op.EdgeLabel})
	s.sources = append(s.sources, u, v)
	return nil
}

// queue adds v to this timestamp's recount list once.
func (s *Store) queue(v *vnode) {
	if v.queued != s.round {
		v.queued = s.round
		s.affected = append(s.affected, v.id)
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
			s.queue(v)
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
					s.queue(u)
					next = append(next, u)
				}
			}
		}
		cur, next = next, cur
	}
	s.cur, s.next = cur[:0], next[:0]
}

// recount recomputes the vector of vertex id from the current graph and
// records it, dirtying id only when the vector changed, appeared or retired.
func (s *Store) recount(id graph.VertexID) {
	old, had := s.vectors[id]
	v := s.verts[id]
	if v == nil {
		if had {
			delete(s.vectors, id)
			s.dirty[id] = struct{}{}
		}
		return
	}
	clear(s.count)
	s.countL1 = 0
	s.path[0] = v
	s.walk(0)
	s.nodes += s.countL1 - v.l1
	v.l1 = s.countL1
	if had && old.Equal(s.count) {
		return
	}
	if had {
		clear(old)
		for d, c := range s.count {
			old[d] = c
		}
	} else {
		s.vectors[id] = s.count.Clone()
	}
	s.dirty[id] = struct{}{}
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
