package npv

import (
	"slices"

	"nntstream/internal/graph"
	"nntstream/internal/nnt"
)

// Space holds the node-projected vectors of every vertex of one graph. It
// implements nnt.Observer, so attaching a Space to a Forest at construction
// time keeps the vectors synchronized with the trees at zero extra traversal
// cost (Procedure TreeProjection runs implicitly, one increment per tree
// edge event). It serves the Branch filter, the reference tests and the
// benchmark probe; streams are recounted by Store, whose seal contract
// SealDirty mirrors here.
type Space struct {
	vectors map[graph.VertexID]Vector
	// dirty holds the vertices whose vector changed (or which appeared or
	// retired) since the last seal.
	dirty map[graph.VertexID]struct{}
	// packed caches the PackedVector of each vertex as of the last seal,
	// nil until EnablePacking; each seal refreshes exactly the dirty ones.
	packed map[graph.VertexID]PackedVector
}

var _ nnt.Observer = (*Space)(nil)

// NewSpace returns an empty space, ready to be passed to nnt.NewForest.
func NewSpace() *Space {
	return &Space{
		vectors: make(map[graph.VertexID]Vector),
		dirty:   make(map[graph.VertexID]struct{}),
	}
}

// TreeAdded implements nnt.Observer.
func (s *Space) TreeAdded(root graph.VertexID, _ graph.Label) {
	s.vectors[root] = make(Vector)
	s.dirty[root] = struct{}{}
}

// TreeRemoved implements nnt.Observer.
func (s *Space) TreeRemoved(root graph.VertexID) {
	delete(s.vectors, root)
	s.dirty[root] = struct{}{}
}

// vecFor returns root's vector, marking it dirty.
func (s *Space) vecFor(root graph.VertexID) Vector {
	s.dirty[root] = struct{}{}
	return s.vectors[root]
}

// TreeEdgeAdded implements nnt.Observer.
func (s *Space) TreeEdgeAdded(root graph.VertexID, level int, pl, el, cl graph.Label) {
	s.vecFor(root).Add(NewDim(byte(level), pl, el, cl), 1)
}

// TreeEdgeRemoved implements nnt.Observer.
func (s *Space) TreeEdgeRemoved(root graph.VertexID, level int, pl, el, cl graph.Label) {
	s.vecFor(root).Add(NewDim(byte(level), pl, el, cl), -1)
}

// Vector returns the NPV of v, or nil when v is absent. Callers must not
// mutate the result.
func (s *Space) Vector(v graph.VertexID) Vector { return s.vectors[v] }

// EnablePacking turns on the packed-vector cache: from the next seal on,
// every dirty vertex's vector is frozen into PackedVector form at the
// timestamp boundary. SealDirty requires it; the Branch filter, which reads
// only the dirty set, leaves it off.
func (s *Space) EnablePacking() {
	if s.packed == nil {
		s.packed = make(map[graph.VertexID]PackedVector, len(s.vectors))
	}
}

// Len reports the number of vectors (vertices) in the space.
func (s *Space) Len() int { return len(s.vectors) }

// TakeDirty returns, ascending, the vertices whose vectors changed (or were
// added or removed) since the previous seal, and resets the dirty set. With
// packing enabled it is also the cache's seal point: exactly the dirty
// vertices are re-frozen (or evicted, when retired).
func (s *Space) TakeDirty() []graph.VertexID {
	ids := s.drain()
	if s.packed != nil {
		for _, v := range ids {
			s.reseal(v)
		}
	}
	return ids
}

// DirtyDelta is one vertex's transition across a seal boundary: the packed
// vector sealed at the previous seal (Old, when HadOld) and the packed
// vector sealed now (New, when HasNew). A vertex added since the last seal
// has HadOld false; a retired vertex has HasNew false; a vertex added and
// retired between two seals has neither. Moves is the diff from Old to New
// (Diff), valid until the sealer's next seal. Slot is the
// vertex's slot in its Store: dense from 0, issued at build in ascending
// vertex order and then in op order, stable while the vertex lives, and
// recycled once a seal has reported it retired. A Space leaves it 0.
type DirtyDelta struct {
	Vertex graph.VertexID
	Slot   int32
	Old    PackedVector
	New    PackedVector
	HadOld bool
	HasNew bool
	Moves  []Move
}

// Move is one dimension's count change across a seal, an absent dimension
// counting 0.
type Move struct {
	Dim      Dim
	Old, New int32
}

// Diff appends to buf the moves from old to new, one per dimension whose
// count differs, in ascending Dim order, and reports whether one of them
// enters or leaves the support.
func Diff(buf []Move, old, new PackedVector) ([]Move, bool) {
	reshaped := false
	i, j := 0, 0
	for i < len(old.dims) || j < len(new.dims) {
		switch {
		case j == len(new.dims) || i < len(old.dims) && old.dims[i] < new.dims[j]:
			buf = append(buf, Move{old.dims[i], old.counts[i], 0})
			reshaped = true
			i++
		case i == len(old.dims) || new.dims[j] < old.dims[i]:
			buf = append(buf, Move{new.dims[j], 0, new.counts[j]})
			reshaped = true
			j++
		default:
			if old.counts[i] != new.counts[j] {
				buf = append(buf, Move{new.dims[j], old.counts[i], new.counts[j]})
			}
			i++
			j++
		}
	}
	return buf, reshaped
}

// SealDirty is TakeDirty for consumers that need the transition, not just
// the vertex set, with Store.SealDirty's contract: one DirtyDelta per dirty
// vertex in ascending vertex order, Old read from the cache before
// resealing, Moves filled by Diff. It requires EnablePacking: without the
// cache there is no sealed "before" value, and a caller that silently saw
// HadOld == false for a vertex that merely changed would under-report
// candidates.
func (s *Space) SealDirty() []DirtyDelta {
	if s.packed == nil {
		panic("npv: SealDirty requires EnablePacking")
	}
	ids := s.drain()
	if ids == nil {
		return nil
	}
	out := make([]DirtyDelta, len(ids))
	for i, v := range ids {
		dl := &out[i]
		dl.Vertex = v
		dl.Old, dl.HadOld = s.packed[v]
		dl.New, dl.HasNew = s.reseal(v)
		dl.Moves, _ = Diff(nil, dl.Old, dl.New)
	}
	return out
}

// drain returns the dirty set, ascending, and empties it.
// The map is cleared rather than reallocated (see BenchmarkSpaceTakeDirty).
func (s *Space) drain() []graph.VertexID {
	if len(s.dirty) == 0 {
		return nil
	}
	ids := make([]graph.VertexID, 0, len(s.dirty))
	for v := range s.dirty {
		ids = append(ids, v)
	}
	clear(s.dirty)
	slices.Sort(ids)
	return ids
}

// reseal freezes v's live vector into the cache, or evicts v when retired.
func (s *Space) reseal(v graph.VertexID) (PackedVector, bool) {
	vec, ok := s.vectors[v]
	if !ok {
		delete(s.packed, v)
		return PackedVector{}, false
	}
	p := Pack(vec)
	s.packed[v] = p
	return p, true
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
