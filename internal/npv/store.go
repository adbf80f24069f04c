package npv

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"nntstream/internal/graph"
)

// MaxDepth is the deepest NNT depth a Store counts: the paper's Fig. 12
// sweeps l = 1–4, and the closed form below is exact up to level 4.
const MaxDepth = 4

// Store keeps the node-projected vectors of one evolving graph by
// recounting them, without materializing a single node-neighbor tree. The
// NPV of a vertex counts, per dimension, the tree edges of its depth-l NNT
// (Section IV-A), and a tree edge is just the last edge of an edge-distinct
// walk of length ≤ l from the root. Up to length 3 such a walk is exactly a
// non-backtracking one, and at length 4 one non-backtracking shape reuses
// an edge: r→a→b→r→a. So with Tk(r) the triples ⟨label x, edge label,
// label y⟩ of the last edges x→y of r's k-walks — the vector's level k —
// the counts obey
//
//	T1(r) = the triples of r's incident edges, oriented away from r
//	T2(r) = Σ_{a∈N(r)} T1(a) − rev(r)    rev(r): the same edges, reversed
//	T3(r) = Σ_{a∈N(r)} T2(a) − (deg(r)−1)·T1(r)
//	T4(r) = Σ_{a∈N(r)} T3(a) − (deg(r)−1)·T2(r) − Σ_{a∈N(r)} c(r,a)·tri(r→a)
//
// where c(r,a) = |N(r) ∩ N(a)|, one r→a→b→r→a per common neighbour b. From
// length 5 on, reused edges take more shapes, so depth stops at MaxDepth.
//
// Each vertex keeps one tally list per level: counts of triples interned
// when edges are linked, sorted by the Dim each triple maps to at that
// level. A level sums the neighbours' previous one in a dense scratch
// array, without hashing; c(r,a) is counted there too, so linking and
// unlinking keep no triangle state.
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
//     or retired), and SealDirty reports a dirty vertex only if its sealed
//     vector moved, so everything keyed on the deltas sees exactly the
//     vertices whose vector moved.
//
// A vector exists in packed form only: SealDirty concatenates each dirty
// vertex's level lists into a PackedVector, which Packed and PackedVectors
// serve until the vertex next moves. Recounting pays once per affected
// root per timestamp for its final counts, where patching an nnt.Forest
// pays for every intermediate tree.
//
// A capped store (NewCappedStore) seals each count at a per-dimension cap,
// the largest count any registered query vector has there, and drops the
// dimensions whose cap is 0. Lemma 4.2 compares a count v[d] only with
// query counts u[d] ≤ cap(d), so v ≽ u iff min(v, cap) ≽ u for every
// registered u, and a recount that moves only counts above the cap seals
// nothing. The levels stay exact; only the sealed vectors are capped.
//
// Levels are exact in 64 bits: a level count of r, and every partial sum
// of one, is at most the number of walks of length ≤ 4 from r, which is at
// most (2m)² for a graph of m edges, so no graph under 1.5·10⁹ edges
// overflows a tally or a sum. Every store seals a count as min(count,
// MaxInt32) before any cap — the query side (ProjectPacked) and the stream
// side alike — so a sealed count is never negative. min(·, C) is monotone: v ≥ u implies min(v, C) ≥ min(u, C), so
// a saturated stream count still dominates every query count its true
// count dominates, and saturation can only over-report a pair.
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
	// vertices one sweep, or one level-4 recount, has reached; round the
	// vertices queued for recounting this timestamp. 64 bits never wrap
	// back to the zero a new vnode starts with.
	stamp, round uint64
	affected     []*vnode
	sources      []*vnode
	cur, next    []*vnode

	// tris[id] is triple id as a level-0 Dim, triID its inverse. acc sums
	// one level of one root, touched[:nt] lists its nonzero ids, and sums
	// gathers them for a vnode (all three sized to the triple count).
	tris    []Dim
	triID   map[Dim]uint32
	acc     []int64
	touched []uint32
	nt      int
	sums    []tally

	// capOf gives a dimension's cap, nil for exact counts; caps[k-1][t]
	// holds it for triple t at level k.
	capOf func(Dim) int32
	caps  [][]int32
	// enter is settle's scratch for the triples entering a level's
	// support, sized like sums.
	enter []tally
	// Seal scratch: the last seal's deltas and their moves, reused by the
	// next, and the vector being sealed. full marks the next seal as one
	// that reseals every vertex (the first, or the one after ResetCaps):
	// its deltas get buffers of their own, which the store does not keep,
	// so the scratch scales with a step's seal, not with the whole store.
	out    []DirtyDelta
	moves  []Move
	dims   []Dim
	counts []int32
	full   bool
}

// vnode is one vertex of the store's graph: its label and adjacency, with
// each neighbor held by pointer so counting never hashes, its level lists,
// its last sealed vector and its slot (DirtyDelta.Slot).
type vnode struct {
	id     graph.VertexID
	slot   int32
	label  graph.Label
	adj    []half
	lv     [][]tally    // lv[k-1]: level k, sorted by Dim
	packed PackedVector // the vector as of the last seal
	l1     int          // L1 of its levels
	seen   uint64       // stamp of the last sweep or root marking that reached it
	queued uint64       // round in which it was queued for recounting
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

// tally is one triple's count at one level of a vertex, exact in 64 bits
// (see Store: sealing saturates it).
type tally struct {
	tri uint32
	n   int64
}

// NewStore builds the store of an initial graph; g is not retained. depth is
// the paper's l, in [1, MaxDepth]. Every vertex starts dirty, so the first
// SealDirty reports each one as added. Its sealed vectors hold exact counts,
// saturated at MaxInt32.
func NewStore(g *graph.Graph, depth int) *Store {
	return NewCappedStore(g, depth, nil)
}

// NewCappedStore is NewStore sealing every count d at capOf(d) and dropping
// the dimensions capped at 0; a nil capOf keeps exact counts. capOf is
// read when a triple is first counted and on ResetCaps, from inside Apply:
// it must not change while an Apply runs, and must be safe to call from
// the goroutine that runs it.
func NewCappedStore(g *graph.Graph, depth int, capOf func(Dim) int32) *Store {
	if depth < 1 || depth > MaxDepth {
		panic(fmt.Sprintf("npv: depth must be in [1, %d], got %d", MaxDepth, depth))
	}
	s := &Store{
		depth: depth,
		verts: make(map[graph.VertexID]*vnode, g.VertexCount()),
		triID: make(map[Dim]uint32),
		capOf: capOf,
		full:  true,
	}
	if capOf != nil {
		s.caps = make([][]int32, depth)
	}
	// Ascending IDs, so the vertices' slots do not depend on map order.
	for _, v := range g.VertexIDs() {
		s.affected = append(s.affected, s.newVnode(v, g.MustVertexLabel(v)))
	}
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

// Slot returns v's slot (DirtyDelta.Slot), and false when v is not in the
// store.
func (s *Store) Slot(v graph.VertexID) (int32, bool) {
	if n := s.verts[v]; n != nil {
		return n.slot, true
	}
	return 0, false
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

// SealDirty returns one DirtyDelta per vertex whose sealed vector moved (or
// which appeared or retired, or both) since the previous call, in ascending
// vertex order, and makes each New the vertex's sealed vector. Old is the
// vector the previous seal exposed to evaluation, and Moves their diff, so
// (Old, New, Moves) is the precise input the query dominance index
// (internal/qindex) prunes candidates with. The deltas and their moves are
// valid until the next seal. A sealed vector is never written again, so
// readers may keep it across seals: New is built in fresh slices, sharing
// Old's support when only counts moved. A seal that moves no vector
// returns nil and allocates nothing.
func (s *Store) SealDirty() []DirtyDelta {
	if len(s.dirty) == 0 {
		return nil
	}
	slices.SortFunc(s.dirty, func(a, b *vnode) int { return cmp.Compare(a.id, b.id) })
	var out []DirtyDelta
	var moves []Move
	if !s.full {
		out, moves = s.out[:0], s.moves[:0]
	}
	for i, v := range s.dirty {
		from := len(moves)
		var p PackedVector
		if v.live {
			p, moves = s.seal(v, moves)
		} else {
			moves, _ = Diff(moves, v.packed, PackedVector{})
		}
		if len(moves) > from || !v.sealed || !v.live {
			out = append(out, DirtyDelta{Vertex: v.id, Slot: v.slot, Old: v.packed, New: p, HadOld: v.sealed, HasNew: v.live,
				Moves: moves[from:len(moves):len(moves)]})
			v.packed = p
		}
		v.sealed, v.dirty = v.live, false
		if !v.live {
			delete(s.verts, v.id)
			s.free = append(s.free, v)
		}
		s.dirty[i] = nil
	}
	s.dirty = s.dirty[:0]
	if !s.full {
		s.out, s.moves = out, moves
	}
	s.full = false
	if len(out) == 0 {
		return nil
	}
	return out
}

// seal builds v's sealed vector from its level lists, capped, and appends
// its moves from v's last sealed vector to moves (Diff). An unmoved vector
// is the last sealed one, and a count-only move shares its support and
// signature.
func (s *Store) seal(v *vnode, moves []Move) (PackedVector, []Move) {
	dims, counts := s.dims[:0], s.counts[:0]
	for k, l := range v.lv {
		level := Dim(k+1) << 48
		for _, t := range l {
			c := int32(min(t.n, math.MaxInt32))
			if s.caps != nil {
				if c = min(c, s.caps[k][t.tri]); c == 0 {
					continue
				}
			}
			dims = append(dims, s.tris[t.tri]|level)
			counts = append(counts, c)
		}
	}
	s.dims, s.counts = dims, counts
	old, from := v.packed, len(moves)
	moves, reshaped := Diff(moves, old, PackedVector{dims: dims, counts: counts})
	switch {
	case len(moves) == from:
		return old, moves
	case !reshaped:
		return PackedVector{dims: old.dims, counts: slices.Clone(counts), sig: old.sig}, moves
	}
	p := PackedVector{dims: slices.Clone(dims), counts: slices.Clone(counts)}
	for _, d := range dims {
		p.sig |= sigBit(d)
	}
	return p, moves
}

// ResetCaps re-reads every cap and marks every vertex dirty, so the next
// seal reseals each vector under the caps now in force and reports the
// vertices whose sealed vector moved. A store of exact counts has nothing
// to reset.
func (s *Store) ResetCaps() {
	if s.capOf == nil {
		return
	}
	for k, caps := range s.caps {
		level := Dim(k+1) << 48
		for t := range caps {
			caps[t] = s.capOf(s.tris[t] | level)
		}
	}
	for _, v := range s.verts {
		if v.live {
			s.markDirty(v)
		}
	}
	s.full = true
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
// reuses a vnode retired at a seal when there is one, slot included:
// nothing points at it, and its edges, levels and sealed vector are already
// empty. Every vnode is in verts or in free, so a new one takes the next
// slot, len(verts).
func (s *Store) newVnode(id graph.VertexID, l graph.Label) *vnode {
	var v *vnode
	if n := len(s.free); n > 0 {
		v, s.free = s.free[n-1], s.free[:n-1]
	} else {
		v = &vnode{lv: make([][]tally, s.depth), slot: int32(len(s.verts))}
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
		s.enter = append(s.enter, tally{})
		for k := range s.caps {
			s.caps[k] = append(s.caps[k], s.capOf(d|Dim(k+1)<<48))
		}
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
			s.sum(v, k)
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
	back := int64(len(v.adj) - 1)
	for _, t := range v.lv[k-3] {
		s.acc[t.tri] -= back * t.n
	}
	if k == 4 {
		// Drop each r→a→b→r→a: one per common neighbour b of v and a.
		s.stamp++
		for _, h := range v.adj {
			h.to.seen = s.stamp
		}
		for _, h := range v.adj {
			for _, g := range h.to.adj {
				if g.to.seen == s.stamp {
					s.acc[h.tri]--
				}
			}
		}
	}
}

// add adds n to triple t's sum. The recurrence subtracts only from triples
// its additions touched, so touched lists every nonzero sum.
//
//nnt:hotpath
func (s *Store) add(t uint32, n int64) {
	if s.acc[t] == 0 {
		s.touched[s.nt] = t
		s.nt++
	}
	s.acc[t] += n
}

// settle gathers the scratch sums — level k of v — and clears the scratch.
// When they differ from v's level k it returns them sorted by Dim, valid
// until the next settle, and true. The triples staying in the level keep
// its order; only those entering it are sorted, then merged in.
//
//nnt:hotpath
func (s *Store) settle(v *vnode, k int) ([]tally, bool) {
	n := 0
	for _, t := range s.touched[:s.nt] {
		if s.acc[t] != 0 {
			n++
		}
	}
	old := v.lv[k-1]
	m, moved := 0, n != len(old)
	for _, t := range old {
		if c := s.acc[t.tri]; c != 0 {
			s.sums[m] = tally{t.tri, c}
			m++
			moved = moved || c != t.n
		} else {
			moved = true
		}
	}
	if m < n {
		// Every nonzero sum is touched: the ones left once the staying
		// triples are cleared enter the level.
		for _, t := range s.sums[:m] {
			s.acc[t.tri] = 0
		}
		e := 0
		for _, t := range s.touched[:s.nt] {
			if c := s.acc[t]; c != 0 {
				s.enter[e] = tally{t, c}
				e++
			}
		}
		enter := s.enter[:e]
		slices.SortFunc(enter, func(a, b tally) int { return cmp.Compare(s.tris[a.tri], s.tris[b.tri]) })
		for w, i, j := n-1, m-1, e-1; j >= 0; w-- {
			if i >= 0 && s.tris[s.sums[i].tri] > s.tris[enter[j].tri] {
				s.sums[w] = s.sums[i]
				i--
			} else {
				s.sums[w] = enter[j]
				j--
			}
		}
	}
	for _, t := range s.touched[:s.nt] {
		s.acc[t] = 0
	}
	s.nt = 0
	if !moved {
		return nil, false
	}
	return s.sums[:n], true
}
