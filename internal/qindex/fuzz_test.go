package qindex

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/npv"
)

// decodeFuzzVec reads one small vector from the byte stream: each entry is
// one byte of dimension (folded into a 16-dim pool so supports collide) and
// one byte of count.
func decodeFuzzVec(data []byte) (npv.PackedVector, []byte) {
	if len(data) == 0 {
		return npv.PackedVector{}, data
	}
	n := int(data[0] % 4)
	data = data[1:]
	v := make(npv.Vector)
	for i := 0; i < n && len(data) >= 2; i++ {
		v[npv.Dim(data[0]%16)] = int32(data[1]%8) + 1
		data = data[2:]
	}
	return npv.Pack(v), data
}

// FuzzQindexCandidates drives the soundness property from arbitrary bytes:
// an index over byte-derived query vectors must always name exactly the
// queries whose dominance bits flip across a byte-derived seal transition.
// This is the same invariant as TestAffectedQueriesSupersetQuickcheck with
// the corpus exploring the decode space instead of a fixed distribution:
// flag-driven churn makes new queries take recycled slots and freed
// vectors' refs, and two calls share one Scratch, optionally across a
// stamp wraparound.
func FuzzQindexCandidates(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 3, 2, 5, 1, 1, 4, 3, 2, 1, 3, 3, 1, 2})
	f.Add([]byte{3, 7, 2, 1, 3, 2, 5, 1, 1, 4, 3, 2, 1, 3, 3, 1, 2, 1, 6, 2, 3, 1, 2})
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		b := make([]byte, 4+r.Intn(64))
		r.Read(b)
		f.Add(b)
	}
	// Queries 0 and 1 share a vector; removing query 0 keeps the entry for
	// query 1.
	f.Add([]byte{2, 1, 1, 1, 2, 1, 1, 2, 1, 2, 1, 2, 1, 2, 2, 0, 2, 2, 1, 3, 2, 0, 1, 1, 1, 2})
	// Query 0's vector is freed and its ref reissued to a different vector,
	// which query 1's replacement then shares.
	f.Add([]byte{1, 3, 1, 1, 2, 1, 2, 1, 1, 3, 0, 1, 3, 0, 2, 1, 3, 1, 1, 1, 1, 2, 1, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		nq := 1 + int(data[0]%6)
		flags := data[1]
		data = data[2:]

		ix := New()
		vectors := make(map[Key]npv.PackedVector)
		for q := 0; q < nq; q++ {
			var p npv.PackedVector
			p, data = decodeFuzzVec(data)
			k := Key{Query: core.QueryID(q), Vertex: 0}
			ix.Add(k, p)
			vectors[k] = p
		}
		ix.Seal()
		for round := 0; round < 2; round++ {
			if flags&(1<<round) == 0 || nq < 2 {
				continue
			}
			// Post-seal churn: drop query round, add a fresh one in its slot.
			ix.RemoveQuery(core.QueryID(round))
			delete(vectors, Key{Query: core.QueryID(round), Vertex: 0})
			var p npv.PackedVector
			p, data = decodeFuzzVec(data)
			k := Key{Query: core.QueryID(nq + round), Vertex: 0}
			ix.Add(k, p)
			vectors[k] = p
		}

		var deltas []npv.DirtyDelta
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
			deltas = append(deltas, withMoves(dl)...)
		}

		brute := bruteAffected(vectors, deltas)
		var sc Scratch
		for call := 0; call < 2; call++ {
			got := ix.AffectedQueriesInto(&sc, deltas)
			if !slices.Equal(got, brute) {
				t.Fatalf("call %d: candidates %v != affected %v (vectors %v, deltas %+v)",
					call, got, brute, vectors, deltas)
			}
			if fresh := ix.AffectedQueries(deltas); !slices.Equal(got, fresh) {
				t.Fatalf("call %d: reused scratch %v != fresh scratch %v", call, got, fresh)
			}
			if flags&4 != 0 {
				sc.stamp = math.MaxUint32 // the second call wraps
			}
		}
	})
}
