package npv

import (
	"testing"

	"nntstream/internal/graph"
	"nntstream/internal/nnt"
)

// sealTestGraph is the 3-vertex path 0–1–2.
func sealTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1, 2: 2}, [][3]int{{0, 1, 0}, {1, 2, 0}})
}

// sealTestForest builds sealTestGraph's forest observed by a packing space.
func sealTestForest(t *testing.T) (*nnt.Forest, *Space) {
	t.Helper()
	s := NewSpace()
	s.EnablePacking()
	return nnt.NewForest(sealTestGraph(t), 2, s), s
}

func TestSealDirtyRequiresPacking(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SealDirty without EnablePacking did not panic")
		}
	}()
	NewSpace().SealDirty()
}

// TestSealDirtyTransitions checks the four delta shapes — changed, added,
// retired, ghost — and that Old is exactly the previously sealed value, on
// both sealers: a Space observing a forest and a Store.
func TestSealDirtyTransitions(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) (apply func(graph.ChangeOp), seal func() []DirtyDelta)
	}{
		{"Space", func(t *testing.T) (func(graph.ChangeOp), func() []DirtyDelta) {
			f, s := sealTestForest(t)
			return func(op graph.ChangeOp) {
				if err := f.Apply(op); err != nil {
					t.Fatal(err)
				}
			}, s.SealDirty
		}},
		{"Store", func(t *testing.T) (func(graph.ChangeOp), func() []DirtyDelta) {
			s := NewStore(sealTestGraph(t), 2)
			return func(op graph.ChangeOp) {
				if err := s.Apply(graph.ChangeSet{op}); err != nil {
					t.Fatal(err)
				}
			}, s.SealDirty
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			apply, seal := tc.build(t)
			byVertex := func() map[graph.VertexID]DirtyDelta {
				out := make(map[graph.VertexID]DirtyDelta)
				for _, dl := range seal() {
					out[dl.Vertex] = dl
				}
				return out
			}
			first := byVertex()
			if len(first) != 3 {
				t.Fatalf("first seal: %d deltas; want 3", len(first))
			}
			for _, dl := range first {
				if dl.HadOld || !dl.HasNew || dl.New.Len() == 0 {
					t.Fatalf("first seal delta %+v; want added", dl)
				}
			}
			if got := seal(); got != nil {
				t.Fatalf("clean seal returned %v; want nil", got)
			}

			// Grow a new branch at 0: vertices 0 (changed) and 3 (added) go dirty.
			apply(graph.InsertOp(0, 0, 3, 1, 0))
			deltas := byVertex()
			post := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1, 2: 2, 3: 1}, [][3]int{{0, 1, 0}, {1, 2, 0}, {0, 3, 0}})
			want := ProjectForest(nnt.NewForest(post, 2))
			d0, ok := deltas[0]
			if !ok || !d0.HadOld || !d0.HasNew || d0.Old.Equal(d0.New) {
				t.Fatalf("vertex 0 delta %+v; want changed", d0)
			}
			if !d0.Old.Equal(first[0].New) {
				t.Fatalf("vertex 0 Old = %v; previously sealed %v", d0.Old, first[0].New)
			}
			if !d0.New.Equal(Pack(want[0])) {
				t.Fatalf("vertex 0 New = %v; want %v", d0.New, want[0])
			}
			if d3, ok := deltas[3]; !ok || d3.HadOld || !d3.HasNew || !d3.New.Equal(Pack(want[3])) {
				t.Fatalf("vertex 3 delta %+v; want added", d3)
			}

			// Retire 3 again: delete its only edge.
			apply(graph.DeleteOp(0, 3))
			if d3, ok := byVertex()[3]; !ok || !d3.HadOld || d3.HasNew || !d3.Old.Equal(Pack(want[3])) {
				t.Fatalf("vertex 3 delta %+v; want retired", d3)
			}

			// Ghost: add 3 and retire it again between two seals.
			apply(graph.InsertOp(0, 0, 3, 1, 0))
			apply(graph.DeleteOp(0, 3))
			d3, ok := byVertex()[3]
			if !ok {
				t.Fatal("ghost vertex 3 missing from deltas")
			}
			if d3.HadOld || d3.HasNew {
				t.Fatalf("ghost vertex delta %+v; want neither side present", d3)
			}
		})
	}
}

// TestPackedCacheRetiredVertex is the regression pin for the packed-cache
// invalidation of retired vertices: a vertex deleted and re-added within one
// timestamp must not keep its pre-deletion packed vector, and a vertex
// retired across a seal must leave no cache entry behind (both TakeDirty
// and SealDirty evict).
func TestPackedCacheRetiredVertex(t *testing.T) {
	for _, seal := range []struct {
		name string
		fn   func(*Space)
	}{
		{"TakeDirty", func(s *Space) { s.TakeDirty() }},
		{"SealDirty", func(s *Space) { s.SealDirty() }},
	} {
		t.Run(seal.name, func(t *testing.T) {
			f, s := sealTestForest(t)
			seal.fn(s)
			stale, ok := s.packed[2]
			if !ok {
				t.Fatal("vertex 2 missing after first seal")
			}

			// Retire 2 (it becomes isolated) and re-attach it elsewhere —
			// with a different edge label, so its vector genuinely differs —
			// all within one timestamp.
			if err := f.Apply(graph.DeleteOp(1, 2)); err != nil {
				t.Fatal(err)
			}
			if err := f.Apply(graph.InsertOp(0, 0, 2, 2, 1)); err != nil {
				t.Fatal(err)
			}
			fresh := Pack(s.Vector(2))
			if fresh.Equal(stale) {
				t.Fatal("test graph does not distinguish stale from fresh")
			}
			seal.fn(s)
			if p, ok := s.packed[2]; !ok || !p.Equal(fresh) {
				t.Fatalf("post-seal cache of 2 = %v, %v; want fresh %v", p, ok, fresh)
			}

			// Retire 2 for good across a seal: the cache entry must be gone.
			if err := f.Apply(graph.DeleteOp(0, 2)); err != nil {
				t.Fatal(err)
			}
			seal.fn(s)
			if p, ok := s.packed[2]; ok {
				t.Fatalf("retired vertex 2 still cached as %v", p)
			}
		})
	}
}
