package join

import (
	"reflect"
	"testing"

	"nntstream/internal/core"
	"nntstream/internal/graph"
)

// dynamicFilters returns fresh instances of every filter supporting dynamic
// query registration.
func dynamicFilters(depth int) []core.Filter {
	return []core.Filter{
		NewNL(depth), NewDSC(depth), NewSkyline(depth), NewBranch(depth), NewExact(),
	}
}

func TestDynamicAddAfterStreams(t *testing.T) {
	for _, f := range dynamicFilters(3) {
		t.Run(f.Name(), func(t *testing.T) {
			// Stream contains an A-B edge and a triangle.
			g := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1, 2: 2},
				[][3]int{{0, 1, 0}, {1, 2, 0}, {2, 0, 0}})
			if err := f.AddStream(0, g); err != nil {
				t.Fatal(err)
			}
			// Now add queries live.
			q0 := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1}, [][3]int{{0, 1, 0}})
			q1 := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 3}, [][3]int{{0, 1, 0}})
			if err := f.AddQuery(0, q0); err != nil {
				t.Fatal(err)
			}
			if err := f.AddQuery(1, q1); err != nil {
				t.Fatal(err)
			}
			got := f.Candidates()
			want := []core.Pair{{Stream: 0, Query: 0}}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Candidates = %v; want %v", got, want)
			}
		})
	}
}

func TestDynamicRemove(t *testing.T) {
	for _, f := range dynamicFilters(3) {
		t.Run(f.Name(), func(t *testing.T) {
			workload(t, f)
			if err := f.RemoveQuery(0); err != nil {
				t.Fatal(err)
			}
			for _, p := range f.Candidates() {
				if p.Query == 0 {
					t.Fatalf("removed query still reported: %v", p)
				}
			}
			if err := f.RemoveQuery(0); err == nil {
				t.Fatal("double remove should fail")
			}
			if err := f.RemoveQuery(99); err == nil {
				t.Fatal("removing unknown query should fail")
			}
			// Re-register under the same ID and keep streaming.
			q := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1}, [][3]int{{0, 1, 0}})
			if err := f.AddQuery(0, q); err != nil {
				t.Fatal(err)
			}
			if err := f.Apply(0, graph.ChangeSet{graph.DeleteOp(0, 1)}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMonitorDynamicQueries(t *testing.T) {
	mon := core.NewMonitor(NewDSC(3))
	g := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1}, [][3]int{{0, 1, 0}})
	if _, err := mon.AddStream(g); err != nil {
		t.Fatal(err)
	}
	q := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1}, [][3]int{{0, 1, 0}})
	id, err := mon.AddQuery(q) // after a stream: allowed, DSC is dynamic
	if err != nil {
		t.Fatal(err)
	}
	if got := mon.Candidates(); len(got) != 1 {
		t.Fatalf("Candidates = %v", got)
	}
	if err := mon.RemoveQuery(id); err != nil {
		t.Fatal(err)
	}
	if got := mon.Candidates(); len(got) != 0 {
		t.Fatalf("Candidates after removal = %v", got)
	}
	if err := mon.RemoveQuery(id); err == nil {
		t.Fatal("removing twice should fail")
	}
}
