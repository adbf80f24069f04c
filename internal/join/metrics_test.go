package join

import (
	"strconv"
	"strings"
	"testing"

	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/nnt"
	"nntstream/internal/obs"
	"nntstream/internal/qindex"
)

// unlocked stands in for the engine's read lock when a test drives a filter
// directly on one goroutine.
func unlocked(fn func() float64) func() float64 { return fn }

// scrape registers f's instruments in a fresh registry and returns a reader
// of the current value of one series.
func scrape(t *testing.T, f core.MetricsFilter) func(name string) float64 {
	t.Helper()
	reg := obs.NewRegistry()
	f.RegisterMetrics(reg, unlocked)
	return func(name string) float64 {
		t.Helper()
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(b.String(), "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				x, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatal(err)
				}
				return x
			}
		}
		t.Fatalf("series %s not exported:\n%s", name, b.String())
		return 0
	}
}

// TestFilterCollectors drives each instrumented filter through a small
// workload and checks the scrape-time series it registers.
// nntstream_filter_nnt_nodes is derived from the stream vectors without
// building a tree, so it is pinned to the node count of the stream's
// materialized NNTs.
func TestFilterCollectors(t *testing.T) {
	mkQuery := func(t *testing.T) *graph.Graph {
		return buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1}, [][3]int{{0, 1, 0}})
	}
	mkStream := func(t *testing.T) *graph.Graph {
		return buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1, 2: 2},
			[][3]int{{0, 1, 0}, {1, 2, 0}})
	}
	shared := []string{"nntstream_filter_query_vectors", "nntstream_filter_stream_vectors", "nntstream_filter_nnt_nodes"}
	cases := []struct {
		name   string
		filter interface {
			core.Filter
			core.MetricsFilter
		}
		present []string // series that must be > 0 after the workload
		// indexed: a step must advance qindex's candidate counter.
		indexed bool
		// scanless: the probe reads counters, not stream vectors, so the
		// scan counter must stay at zero.
		scanless bool
	}{
		{
			name:    "skyline",
			filter:  NewSkyline(DefaultDepth),
			present: append([]string{"nntstream_skyline_dimensions", "nntstream_qindex_postings"}, shared...),
			indexed: true,
		},
		{name: "nl", filter: NewNL(DefaultDepth), present: shared},
		{
			name:     "dsc",
			filter:   NewDSC(DefaultDepth),
			present:  append([]string{"nntstream_qindex_postings"}, shared...),
			indexed:  true,
			scanless: true,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			read := scrape(t, c.filter)
			if err := c.filter.AddQuery(0, mkQuery(t)); err != nil {
				t.Fatal(err)
			}
			if err := c.filter.AddStream(0, mkStream(t)); err != nil {
				t.Fatal(err)
			}
			for _, name := range c.present {
				if v := read(name); v <= 0 {
					t.Fatalf("series %s = %v; want > 0", name, v)
				}
			}
			// The workload ends on the start graph again.
			want := float64(nnt.NewForest(mkStream(t), DefaultDepth).TotalNodes())
			if got := read("nntstream_filter_nnt_nodes"); got != want {
				t.Fatalf("nntstream_filter_nnt_nodes = %v; forest TotalNodes = %v", got, want)
			}
			// Drive probes — deleting and re-inserting the matched edge
			// re-evaluates the pair both ways — and check the scan counter
			// and, for an indexed filter, the candidate counter advance.
			scans := read("nntstream_filter_vector_scans_total")
			cands, _ := qindex.Counters()
			for i := 0; i < 3; i++ {
				if err := c.filter.Apply(0, graph.ChangeSet{graph.DeleteOp(0, 1)}); err != nil {
					t.Fatal(err)
				}
				if err := c.filter.Apply(0, graph.ChangeSet{graph.InsertOp(0, 0, 1, 1, 0)}); err != nil {
					t.Fatal(err)
				}
			}
			if after := read("nntstream_filter_vector_scans_total"); c.scanless && after != 0 || !c.scanless && after <= scans {
				t.Fatalf("scan counter went %v -> %v", scans, after)
			}
			if after, _ := qindex.Counters(); c.indexed && after <= cands {
				t.Fatalf("qindex candidate counter did not grow: %d -> %d", cands, after)
			}
			if got := read("nntstream_filter_nnt_nodes"); got != want {
				t.Fatalf("nntstream_filter_nnt_nodes after churn = %v; forest TotalNodes = %v", got, want)
			}
		})
	}
}
