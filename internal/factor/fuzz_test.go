package factor

import (
	"testing"

	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/npv"
)

// FuzzFactorSeal feeds arbitrary byte strings through a deterministic
// decoder into a query-vector set, runs discovery (plus post-seal churn),
// and asserts the two contracts discovery must never break, no matter how
// degenerate the input:
//
//  1. Structural: every factor is a lower envelope of each member
//     (supp(f) ⊆ supp(u), f ≤ u entrywise) and every registered vector has
//     a decomposition.
//  2. Semantic: for every registered vector and every probe drawn from the
//     same vector pool, factored dominance ≡ full packed dominance.
func FuzzFactorSeal(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 0, 0, 0, 9, 9, 9, 9, 2, 2, 2, 2})
	f.Add([]byte{255, 1, 255, 2, 255, 3, 0, 1, 0, 2, 0, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode: triples (query, dim, count) with tiny alphabets so
		// vectors collide and overlap often.
		vecs := make(map[Key]npv.Vector)
		for i := 0; i+2 < len(data); i += 3 {
			q := core.QueryID(data[i] % 8)
			d := npv.Dim(data[i+1] % 16)
			c := int32(data[i+2]%5) + 1
			k := Key{Query: q, Vertex: graph.VertexID(data[i] % 4)}
			if vecs[k] == nil {
				vecs[k] = make(npv.Vector)
			}
			vecs[k][d] = c
		}

		tbl := NewTable()
		tbl.SetMinSupport(2)
		tbl.SetMinDims(1)
		packed := make(map[Key]npv.PackedVector, len(vecs))
		var keys []Key
		for k, v := range vecs {
			p := npv.Pack(v)
			packed[k] = p
			keys = append(keys, k)
			tbl.Add(k, p)
		}
		tbl.Seal()
		checkTable(t, tbl, packed)

		// Churn: remove one query and add it back post-seal, where it is
		// matched against the pinned factor set.
		if len(keys) > 0 {
			victim := keys[0].Query
			tbl.RemoveQuery(victim)
			for k, p := range packed {
				if k.Query == victim {
					tbl.Add(k, p)
				}
			}
			checkTable(t, tbl, packed)
		}
	})
}

// checkTable asserts the structural and semantic contracts over every
// registered vector, probing with the vector pool itself (pool members
// dominate each other often, exercising both verdicts).
func checkTable(t *testing.T, tbl *Table, packed map[Key]npv.PackedVector) {
	t.Helper()
	for k, u := range packed {
		dec, ok := tbl.Decomp(k)
		if !ok {
			t.Fatalf("key %v has no decomposition", k)
		}
		if !dec.Full.Equal(u) {
			t.Fatalf("key %v: decomp full %v != registered %v", k, dec.Full, u)
		}
		if dec.Factor != None {
			fv := tbl.Factor(dec.Factor)
			for i := 0; i < fv.Len(); i++ {
				if got := u.Get(fv.Dim(i)); got < fv.Count(i) {
					t.Fatalf("key %v: factor %v is not a lower envelope of %v", k, fv, u)
				}
			}
		}
		for _, p := range packed {
			full := p.Dominates(u)
			factored := p.Dominates(dec.Residual)
			if dec.Factor != None {
				factored = factored && p.Dominates(tbl.Factor(dec.Factor))
			}
			if full != factored {
				t.Fatalf("key %v probe %v: factored %v != full %v", k, p, factored, full)
			}
		}
	}
}
