package npv

import (
	"cmp"
	"slices"

	"nntstream/internal/graph"
	"nntstream/internal/nnt"
)

// vecTable is the sealed-vector half shared by Space and Store: the live
// vector of every vertex, the set of vertices whose vector changed (or which
// appeared or retired) since the last seal, and the packed cache that seal
// refreshes. Space fills it from forest events, Store by recounting; every
// reader (the join strategies, the query index) sees the
// same seal contract either way.
type vecTable struct {
	vectors map[graph.VertexID]Vector
	dirty   map[graph.VertexID]struct{}
	// packed caches the frozen PackedVector of each vertex, nil until
	// EnablePacking. Entries are sealed per dirty vertex at each TakeDirty
	// — the timestamp boundary is the cache's invalidation epoch — so the
	// steady-state evaluation path reads packed vectors without ever
	// touching (or mutating) the incremental maps. Readers may therefore
	// run concurrently: between two TakeDirty calls the cache is immutable.
	packed map[graph.VertexID]PackedVector
	// epoch counts seal generations (TakeDirty and SealDirty calls); Space's
	// last-root memo is valid only within the one that set it.
	epoch uint64
}

func newVecTable() vecTable {
	return vecTable{
		vectors: make(map[graph.VertexID]Vector),
		dirty:   make(map[graph.VertexID]struct{}),
	}
}

// Space holds the node-projected vectors of every vertex of one graph. It
// implements nnt.Observer, so attaching a Space to a Forest at construction
// time keeps the vectors synchronized with the trees at zero extra traversal
// cost (Procedure TreeProjection runs implicitly, one increment per tree
// edge event). Streams use Store instead; the observer path serves the
// Branch filter's tries, the reference tests and the benchmark probe.
type Space struct {
	vecTable
	labels map[graph.VertexID]graph.Label
	// Tree edge events cluster by root (a maintenance step expands or
	// destroys whole subtrees of one tree), so the last-touched root's
	// vector is memoized to skip repeated map lookups. The memo implies a
	// standing dirty mark, so it is valid only within the seal epoch that
	// set it.
	lastRoot  graph.VertexID
	lastVec   Vector
	lastEpoch uint64
	lastValid bool
}

var _ nnt.Observer = (*Space)(nil)

// NewSpace returns an empty space, ready to be passed to nnt.NewForest.
func NewSpace() *Space {
	return &Space{
		vecTable: newVecTable(),
		labels:   make(map[graph.VertexID]graph.Label),
	}
}

// TreeAdded implements nnt.Observer.
func (s *Space) TreeAdded(root graph.VertexID, rootLabel graph.Label) {
	vec := make(Vector)
	s.vectors[root] = vec
	s.labels[root] = rootLabel
	s.dirty[root] = struct{}{}
	s.lastRoot, s.lastVec, s.lastEpoch, s.lastValid = root, vec, s.epoch, true
}

// TreeRemoved implements nnt.Observer.
func (s *Space) TreeRemoved(root graph.VertexID) {
	delete(s.vectors, root)
	delete(s.labels, root)
	s.dirty[root] = struct{}{}
	s.lastValid = false
}

// vecFor returns root's vector, marking it dirty, through the memo.
func (s *Space) vecFor(root graph.VertexID) Vector {
	if s.lastValid && s.lastRoot == root && s.lastEpoch == s.epoch {
		return s.lastVec
	}
	vec := s.vectors[root]
	s.dirty[root] = struct{}{}
	s.lastRoot, s.lastVec, s.lastEpoch, s.lastValid = root, vec, s.epoch, true
	return vec
}

// TreeEdgeAdded implements nnt.Observer.
func (s *Space) TreeEdgeAdded(root graph.VertexID, level int, pl, el, cl graph.Label) {
	s.vecFor(root).Add(NewDim(byte(level), pl, el, cl), 1)
}

// TreeEdgeRemoved implements nnt.Observer.
func (s *Space) TreeEdgeRemoved(root graph.VertexID, level int, pl, el, cl graph.Label) {
	s.vecFor(root).Add(NewDim(byte(level), pl, el, cl), -1)
}

// RootLabel returns the vertex label of v as last observed.
func (s *Space) RootLabel(v graph.VertexID) (graph.Label, bool) {
	l, ok := s.labels[v]
	return l, ok
}

// Vector returns the NPV of v, or nil when v is absent. Callers must not
// mutate the result.
func (s *vecTable) Vector(v graph.VertexID) Vector { return s.vectors[v] }

// EnablePacking turns on the packed-vector cache: from the next TakeDirty
// on, every dirty vertex's vector is sealed into PackedVector form at the
// timestamp boundary, and Packed/PackedVectors serve reads from the cache
// without map iteration. Filters whose evaluation runs on the packed kernel
// (NL, Skyline) enable it at stream registration; counter-based filters
// (DSC) skip it and pay nothing.
func (s *vecTable) EnablePacking() {
	if s.packed == nil {
		s.packed = make(map[graph.VertexID]PackedVector, len(s.vectors))
	}
}

// Packed returns the packed NPV of v. In steady state (packing enabled, no
// pending dirt) this is a single cache lookup and never allocates. A vertex
// with pending dirt — or a space without packing enabled — is packed fresh
// from the live map so the result is always current; the cache itself is
// only written at TakeDirty, which keeps concurrent evaluation readers
// race-free.
func (s *vecTable) Packed(v graph.VertexID) (PackedVector, bool) {
	if len(s.dirty) != 0 {
		if _, dd := s.dirty[v]; dd {
			vec, ok := s.vectors[v]
			if !ok {
				return PackedVector{}, false
			}
			return Pack(vec), true
		}
	}
	if s.packed != nil {
		if p, ok := s.packed[v]; ok {
			return p, true
		}
	}
	vec, ok := s.vectors[v]
	if !ok {
		return PackedVector{}, false
	}
	return Pack(vec), true
}

// PackedVectors calls fn for every (vertex, packed vector) pair, like
// Vectors but through the packed cache. Iteration order is unspecified; fn
// returning false stops iteration.
func (s *vecTable) PackedVectors(fn func(v graph.VertexID, p PackedVector) bool) {
	for v := range s.vectors {
		p, _ := s.Packed(v)
		if !fn(v, p) {
			return
		}
	}
}

// Len reports the number of vectors (vertices) in the space.
func (s *vecTable) Len() int { return len(s.vectors) }

// Vectors calls fn for every (vertex, vector) pair. Iteration order is
// unspecified; fn returning false stops iteration.
func (s *vecTable) Vectors(fn func(v graph.VertexID, vec Vector) bool) {
	for v, vec := range s.vectors {
		if !fn(v, vec) {
			return
		}
	}
}

// TakeDirty returns the vertices whose vectors changed (or were added or
// removed) since the previous call, and resets the dirty set. Join
// strategies use this to touch only changed vertices per timestamp.
//
// TakeDirty is also the packed cache's seal point: with packing enabled,
// exactly the dirty vertices are re-frozen (or evicted, when retired), so
// the cache stays consistent at O(dirty) per timestamp and is immutable
// between calls. The dirty map itself is retained and cleared rather than
// reallocated — it is touched every timestamp, and churning a fresh map per
// call showed up as steady-state garbage (see BenchmarkSpaceTakeDirty).
func (s *vecTable) TakeDirty() []graph.VertexID {
	s.epoch++
	if len(s.dirty) == 0 {
		return nil
	}
	out := make([]graph.VertexID, 0, len(s.dirty))
	for v := range s.dirty {
		out = append(out, v)
	}
	clear(s.dirty)
	slices.Sort(out)
	if s.packed != nil {
		for _, v := range out {
			if vec, ok := s.vectors[v]; ok {
				s.packed[v] = Pack(vec)
			} else {
				delete(s.packed, v)
			}
		}
	}
	return out
}

// DirtyDelta is one vertex's transition across a seal boundary: the packed
// vector sealed at the previous TakeDirty/SealDirty (Old, when HadOld) and
// the packed vector sealed now (New, when HasNew). A vertex added since the
// last seal has HadOld false; a retired vertex has HasNew false; a vertex
// added and retired within the same timestamp has neither.
type DirtyDelta struct {
	Vertex graph.VertexID
	Old    PackedVector
	New    PackedVector
	HadOld bool
	HasNew bool
}

// Changed reports whether the transition is observable at all: a presence
// change, or a present-before-and-after vertex whose packed vector differs.
func (d DirtyDelta) Changed() bool {
	if d.HadOld != d.HasNew {
		return true
	}
	if !d.HadOld {
		return false
	}
	return !d.Old.Equal(d.New)
}

// SealDirty is TakeDirty for consumers that need the transition, not just
// the vertex set: it consumes the dirty set, reseals the packed cache, and
// returns one DirtyDelta per dirty vertex in ascending vertex order. Old is
// read from the cache before resealing, so it is exactly the value the
// previous seal exposed to evaluation — the pair (Old, New) is the precise
// input the query dominance index (internal/qindex) prunes candidates with.
//
// SealDirty requires EnablePacking: without the cache there is no sealed
// "before" value, and a caller that silently saw HadOld == false for a
// vertex that merely changed would under-report candidates.
func (s *vecTable) SealDirty() []DirtyDelta {
	if s.packed == nil {
		panic("npv: SealDirty requires EnablePacking")
	}
	s.epoch++
	if len(s.dirty) == 0 {
		return nil
	}
	out := make([]DirtyDelta, 0, len(s.dirty))
	for v := range s.dirty {
		out = append(out, DirtyDelta{Vertex: v})
	}
	clear(s.dirty)
	slices.SortFunc(out, func(a, b DirtyDelta) int { return cmp.Compare(a.Vertex, b.Vertex) })
	for i := range out {
		v := out[i].Vertex
		if p, ok := s.packed[v]; ok {
			out[i].Old, out[i].HadOld = p, true
		}
		if vec, ok := s.vectors[v]; ok {
			p := Pack(vec)
			out[i].New, out[i].HasNew = p, true
			s.packed[v] = p
		} else {
			delete(s.packed, v)
		}
	}
	return out
}

// ProjectTree computes the NPV of a single node-neighbor tree from scratch
// (Procedure TreeProjection, Figure 6). Together with ProjectForest it is
// the reference implementation that Space and Store are validated against.
func ProjectTree(root *nnt.Node) Vector {
	v := make(Vector)
	var walk func(n *nnt.Node)
	walk = func(n *nnt.Node) {
		for _, c := range n.Children {
			v.Add(NewDim(byte(c.Depth), n.VLabel, c.EdgeLabel, c.VLabel), 1)
			walk(c)
		}
	}
	walk(root)
	return v
}

// ProjectForest computes all NPVs of a forest from scratch.
func ProjectForest(f *nnt.Forest) map[graph.VertexID]Vector {
	out := make(map[graph.VertexID]Vector)
	f.Roots(func(v graph.VertexID, root *nnt.Node) bool {
		out[v] = ProjectTree(root)
		return true
	})
	return out
}

// VectorsByVertex flattens a projection map into a slice in ascending vertex
// order. Map iteration order is randomized in Go; filters that keep their
// query vectors in a slice must build it through this helper so that probe
// order — and everything downstream of it, from skyline tie-breaks to
// candidate evaluation cost — is reproducible run to run.
func VectorsByVertex(m map[graph.VertexID]Vector) []Vector {
	ids := make([]graph.VertexID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	vecs := make([]Vector, 0, len(ids))
	for _, id := range ids {
		vecs = append(vecs, m[id])
	}
	return vecs
}
