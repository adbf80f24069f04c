package join

import (
	"testing"

	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/nnt"
	"nntstream/internal/obs"
)

// TestFilterCollectors drives each NPV filter through a small workload and
// checks the structure-size samples it exports. nntstream_filter_nnt_nodes
// is derived from the stream vectors without building a tree, so it is
// pinned to the node count of the stream's materialized NNTs.
func TestFilterCollectors(t *testing.T) {
	mkQuery := func(t *testing.T) *graph.Graph {
		return buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1}, [][3]int{{0, 1, 0}})
	}
	mkStream := func(t *testing.T) *graph.Graph {
		return buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1, 2: 2},
			[][3]int{{0, 1, 0}, {1, 2, 0}})
	}
	cases := []struct {
		name    string
		filter  core.Filter
		present []string // sample names that must be > 0 after the workload
		work    []string // monotone work counters that must grow
	}{
		{
			name:    "dsc",
			filter:  NewDSC(DefaultDepth),
			present: []string{"nntstream_dsc_column_entries", "nntstream_dsc_query_vertices", "nntstream_filter_nnt_nodes"},
			work:    []string{"nntstream_dsc_dom_updates_total"},
		},
		{
			name:    "skyline",
			filter:  NewSkyline(DefaultDepth),
			present: []string{"nntstream_skyline_maximal_query_vectors", "nntstream_skyline_dimensions", "nntstream_filter_nnt_nodes"},
			work:    []string{"nntstream_skyline_probe_scans_total"},
		},
		{
			name:    "nl",
			filter:  NewNL(DefaultDepth),
			present: []string{"nntstream_nl_query_vectors", "nntstream_nl_stream_vectors", "nntstream_filter_nnt_nodes"},
			work:    []string{"nntstream_nl_vector_scans_total"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			col, ok := c.filter.(obs.Collector)
			if !ok {
				t.Fatalf("%s does not implement obs.Collector", c.name)
			}
			if err := c.filter.AddQuery(0, mkQuery(t)); err != nil {
				t.Fatal(err)
			}
			if err := c.filter.AddStream(0, mkStream(t)); err != nil {
				t.Fatal(err)
			}
			before := obs.Gather(col)
			for _, name := range c.present {
				if before[name] <= 0 {
					t.Fatalf("sample %s = %v; want > 0 (all: %v)", name, before[name], before)
				}
			}
			if before["nntstream_filter_streams"] != 1 {
				t.Fatalf("stream count sample = %v", before["nntstream_filter_streams"])
			}
			// Drive maintenance work — deleting and re-inserting the matched
			// edge crosses DSC's column entries in both directions — and
			// check the work counters advance.
			for i := 0; i < 3; i++ {
				del := graph.ChangeSet{graph.DeleteOp(0, 1)}
				if err := c.filter.Apply(0, del); err != nil {
					t.Fatal(err)
				}
				ins := graph.ChangeSet{graph.InsertOp(0, 0, 1, 1, 0)}
				if err := c.filter.Apply(0, ins); err != nil {
					t.Fatal(err)
				}
			}
			after := obs.Gather(col)
			for _, name := range c.work {
				if after[name] <= before[name] {
					t.Fatalf("work counter %s did not grow: %v -> %v", name, before[name], after[name])
				}
			}
			// The workload ends on the start graph again.
			want := float64(nnt.NewForest(mkStream(t), DefaultDepth).TotalNodes())
			for _, sample := range []map[string]float64{before, after} {
				if got := sample["nntstream_filter_nnt_nodes"]; got != want {
					t.Fatalf("nntstream_filter_nnt_nodes = %v; forest TotalNodes = %v", got, want)
				}
			}
		})
	}
}
