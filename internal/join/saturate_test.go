package join

import (
	"reflect"
	"testing"

	"nntstream/internal/core"
	"nntstream/internal/graph"
)

// clique returns K_n over vertices 0..n−1, every vertex and edge labelled 0.
func clique(n int) *graph.Graph {
	g := graph.New()
	for u := 0; u < n; u++ {
		_ = g.AddVertex(graph.VertexID(u), 0)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			_ = g.AddEdge(graph.VertexID(u), graph.VertexID(v), 0)
		}
	}
	return g
}

// saturatingFilters are the joins whose counts must saturate, not wrap.
var saturatingFilters = []struct {
	name string
	mk   func() core.Filter
}{
	{"NL", func() core.Filter { return NewNL(4) }},
	{"Skyline", func() core.Filter { return NewSkyline(4) }},
	{"DSC", func() core.Filter { return NewDSC(4) }},
}

// TestDenseCliqueCountsSaturate: at depth 4 a vertex of the uniformly
// labelled K220 has 2,268,843,066 tree edges at level 4, past 2³¹−1. A
// wrapped count reads negative and drops the pair (K220, K5) though K5 ⊆
// K220; a saturated one keeps it. The stream arrives whole, and grows from
// K2 to K220 in one Apply.
func TestDenseCliqueCountsSaturate(t *testing.T) {
	const n = 220
	want := []core.Pair{{Stream: 0, Query: 0}}
	grow := graph.ChangeSet{}
	for u := 0; u < n; u++ {
		for v := max(u+1, 2); v < n; v++ {
			grow = append(grow, graph.InsertOp(graph.VertexID(u), 0, graph.VertexID(v), 0, 0))
		}
	}
	for _, fc := range saturatingFilters {
		for _, grown := range []bool{false, true} {
			f := fc.mk()
			if err := f.AddQuery(0, clique(5)); err != nil {
				t.Fatal(err)
			}
			start := clique(n)
			if grown {
				start = clique(2)
			}
			if err := f.AddStream(0, start); err != nil {
				t.Fatal(err)
			}
			if grown {
				if err := f.Apply(0, grow); err != nil {
					t.Fatal(err)
				}
			}
			if got := f.Candidates(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s (grown by Apply: %v): candidates %v; want %v", fc.name, grown, got, want)
			}
		}
	}
}

// TestDenseCliqueQueryRegisters registers a K220 query at depth 4 on live
// joins: its saturated counts must index and match like any other, not
// reach the query index as negative counts.
func TestDenseCliqueQueryRegisters(t *testing.T) {
	for _, fc := range saturatingFilters {
		f := fc.mk()
		if err := f.AddStream(0, clique(220)); err != nil {
			t.Fatal(err)
		}
		if err := f.AddQuery(0, clique(220)); err != nil {
			t.Fatal(err)
		}
		if got, want := f.Candidates(), []core.Pair{{Stream: 0, Query: 0}}; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: candidates %v; want %v", fc.name, got, want)
		}
	}
}
