package qindex

import (
	"math/rand"
	"testing"

	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/npv"
)

// visit is one posting a crossing walk reported, with its direction.
type visit struct {
	key  Key
	vec  npv.PackedVector
	drop bool
}

// recorder is a Visitor that keeps every visit.
type recorder struct{ visits []visit }

func (r *recorder) Cross(e *Posting, drop bool) {
	r.visits = append(r.visits, visit{e.Key, e.Vec, drop})
}

// counter is a Visitor that only counts, for the allocation test.
type counter struct{ n int }

func (c *counter) Cross(*Posting, bool) { c.n++ }

// FuzzCrossDirections pins the three crossing facts the Skyline join
// builds on, for byte-derived query vectors and vertex transitions: no drop
// visit's vector is dominated by the new side, no rise visit's by the old
// side, and the visits that flip — a drop the old side dominated, a rise
// the new side dominates — are exactly the nonempty vectors whose dominance
// by the vertex differs between the two sides (an absent side dominating
// nothing). The walk reports a presence change iff one side is absent.
func FuzzCrossDirections(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 1, 3, 2, 5, 1, 1, 4, 3, 2, 1, 3, 3, 1, 2, 3, 2, 1, 2, 2, 3})
	f.Add([]byte{5, 1, 2, 1, 3, 2, 2, 1, 4, 1, 2, 1, 1, 3, 1, 5, 1, 2})
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 8; i++ {
		b := make([]byte, 8+r.Intn(80))
		r.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		nv := 1 + int(data[0]%12)
		data = data[1:]
		ix := New()
		vectors := make(map[Key]npv.PackedVector)
		for i := 0; i < nv; i++ {
			var p npv.PackedVector
			p, data = decodeFuzzVec(data)
			k := Key{Query: core.QueryID(i / 3), Vertex: graph.VertexID(i % 3)}
			ix.Add(k, p)
			vectors[k] = p
		}
		ix.Seal()
		for v := 0; len(data) > 0 && v < 4; v++ {
			dl := npv.DirtyDelta{Vertex: graph.VertexID(v)}
			kind := data[0] % 4
			data = data[1:]
			if kind == 1 || kind == 3 {
				dl.Old, data = decodeFuzzVec(data)
				dl.HadOld = true
			}
			if kind == 2 || kind == 3 {
				dl.New, data = decodeFuzzVec(data)
				dl.HasNew = true
			}
			var rec recorder
			if got := ix.Cross(dl, &rec); got != (dl.HadOld != dl.HasNew) {
				t.Fatalf("delta %+v: presence change %v", dl, got)
			}
			flipped := make(map[Key]bool)
			for _, vs := range rec.visits {
				before, after := dl.Old.Dominates(vs.vec), dl.New.Dominates(vs.vec)
				if vs.drop && after || !vs.drop && before {
					t.Fatalf("delta %+v: %v visited with drop=%v, but old ≽ u is %v and new ≽ u is %v",
						dl, vs.key, vs.drop, before, after)
				}
				if vs.drop && before || !vs.drop && after {
					flipped[vs.key] = true
				}
			}
			for k, u := range vectors {
				if u.Len() == 0 {
					continue
				}
				want := (dl.HadOld && dl.Old.Dominates(u)) != (dl.HasNew && dl.New.Dominates(u))
				if flipped[k] != want {
					t.Fatalf("delta %+v: %v (%v) flipped=%v, brute force says %v", dl, k, u, flipped[k], want)
				}
			}
		}
	})
}

// TestCrossAllocsZero: the crossing walk allocates nothing of its own, so
// a per-step caller pays only for what its visitor does.
func TestCrossAllocsZero(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	ix := New()
	for q := 0; q < 200; q++ {
		ix.Add(key(q, 0), randomVec(r))
	}
	ix.Seal()
	deltas := []npv.DirtyDelta{
		{Vertex: 0, Old: vec(1, 1, 2, 6, 3, 2), New: vec(1, 6, 2, 1, 4, 3), HadOld: true, HasNew: true},
		{Vertex: 1, New: vec(1, 6, 2, 6, 3, 6, 4, 6, 5, 6), HasNew: true},
		{Vertex: 2, Old: vec(1, 6, 2, 6, 3, 6, 4, 6, 5, 6), HadOld: true},
	}
	var c counter
	allocs := testing.AllocsPerRun(50, func() {
		for _, dl := range deltas {
			ix.Cross(dl, &c)
		}
	})
	if c.n == 0 {
		t.Fatal("the walk visited no posting")
	}
	if allocs != 0 {
		t.Fatalf("crossing walk allocates %.1f per call", allocs)
	}
}

// BenchmarkIndexRemoveQuery removes one query from a sealed index of 400,
// each of one to four vectors over a pool of 300 dimensions, and re-adds
// it off the clock, so every op removes from the same index size.
func BenchmarkIndexRemoveQuery(b *testing.B) {
	const queries, dims = 400, 300
	r := rand.New(rand.NewSource(12))
	ix := New()
	vecs := make([][]npv.PackedVector, queries)
	for q := range vecs {
		for i := 0; i < 1+r.Intn(4); i++ {
			v := make(npv.Vector)
			for n := 10 + r.Intn(20); len(v) < n; {
				v[npv.Dim(r.Intn(dims))] = int32(1 + r.Intn(6))
			}
			vecs[q] = append(vecs[q], npv.Pack(v))
			ix.Add(key(q, i), vecs[q][i])
		}
	}
	ix.Seal()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		q := n % queries
		if !ix.RemoveQuery(core.QueryID(q)) {
			b.Fatal("query not registered")
		}
		b.StopTimer()
		for i, p := range vecs[q] {
			ix.Add(key(q, i), p)
		}
		b.StartTimer()
	}
}
