package gindex

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"nntstream/internal/core"
	"nntstream/internal/graph"
)

// countRecorder is a gIndex filter that keeps every pair count the engine
// reads from it.
type countRecorder struct {
	*Filter
	counts []int
}

func (c *countRecorder) CandidateCount() int {
	n := c.Filter.CandidateCount()
	c.counts = append(c.counts, n)
	return n
}

// TestFilterBatchEqualsSteps: a multi-step core.Monitor.StepAllBatch over
// gIndex gives the per-step pair counts, stats and answer of the same steps
// sent one at a time. The batches' steps change different subsets of the
// streams, and every other batch has an invalid step k ≥ 1: the steps
// before it are applied, and the canonical graphs end at step k−1.
func TestFilterBatchEqualsSteps(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	graphs := make(map[core.StreamID]*graph.Graph)
	for sid := core.StreamID(0); sid < 3; sid++ {
		graphs[sid] = randomConnected(r, 7, 3)
	}
	var queries []*graph.Graph
	for range 6 {
		queries = append(queries, randomSub(r, graphs[core.StreamID(r.Intn(3))]))
	}
	build := func(f core.Filter) *core.Monitor {
		m := core.NewMonitor(f)
		for sid := core.StreamID(0); sid < 3; sid++ {
			if _, err := m.AddStream(graphs[sid].Clone()); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range queries {
			if _, err := m.AddQuery(q); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	stepped := New(Setting2())
	ms := build(stepped)
	batched := &countRecorder{Filter: New(Setting2())}
	mb := build(batched)
	for round := range 6 {
		steps := make([]map[core.StreamID]graph.ChangeSet, 2+r.Intn(4))
		bad := len(steps)
		if round%2 == 1 {
			bad = 1 + r.Intn(len(steps)-1)
		}
		var atBad map[core.StreamID]*graph.Graph
		for k := range steps {
			if k == bad {
				atBad = maps.Clone(graphs)
				steps[k] = toggleStep(r, cloneAll(graphs))
				sid := core.StreamID(r.Intn(3))
				v := graphs[sid].VertexIDs()[0]
				steps[k][sid] = graph.ChangeSet{graph.InsertOp(v, graphs[sid].MustVertexLabel(v)+1, 99, 0, 0)}
				continue
			}
			steps[k] = toggleStep(r, graphs)
		}
		var want []int
		for _, step := range steps[:bad] {
			cands, err := ms.StepAll(step)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, len(cands))
		}
		batched.counts = batched.counts[:0]
		applied, pairs, err := mb.StepAllBatch(steps)
		if applied != bad || (err != nil) != (bad < len(steps)) {
			t.Fatalf("round %d: StepAllBatch applied %d steps (%v); want %d", round, applied, err, bad)
		}
		if !slices.Equal(batched.counts, want) {
			t.Fatalf("round %d: per-step pair counts %v; one step at a time %v", round, batched.counts, want)
		}
		sum := 0
		for _, n := range want {
			sum += n
		}
		if pairs != sum {
			t.Fatalf("round %d: StepAllBatch reported %d pairs; its steps %d", round, pairs, sum)
		}
		if got, want := mb.Stats(), ms.Stats(); got.Timestamps != want.Timestamps || got.CandidatePairs != want.CandidatePairs || got.TotalPairs != want.TotalPairs {
			t.Fatalf("round %d: stats %+v; one step at a time %+v", round, got, want)
		}
		if got, want := mb.Candidates(), ms.Candidates(); !slices.Equal(got, want) {
			t.Fatalf("round %d: candidates %v; one step at a time %v", round, got, want)
		}
		if atBad != nil {
			graphs = atBad
		}
		for sid, g := range graphs {
			if !mb.StreamGraph(sid).Equal(g) || !ms.StreamGraph(sid).Equal(g) {
				t.Fatalf("round %d: stream %d's canonical graph is not the one after step %d", round, sid, bad-1)
			}
		}
	}
}

// toggleStep toggles up to three random edges on each stream it changes,
// skipping each stream with probability 1/3, and advances graphs to the
// step's result.
func toggleStep(r *rand.Rand, graphs map[core.StreamID]*graph.Graph) map[core.StreamID]graph.ChangeSet {
	step := make(map[core.StreamID]graph.ChangeSet)
	for sid := core.StreamID(0); int(sid) < len(graphs); sid++ {
		if r.Intn(3) == 0 {
			continue
		}
		g := graphs[sid].Clone()
		var cs graph.ChangeSet
		for range 1 + r.Intn(3) {
			u, v := graph.VertexID(r.Intn(7)), graph.VertexID(r.Intn(7))
			if u == v || !g.HasVertex(u) || !g.HasVertex(v) {
				continue
			}
			op := graph.DeleteOp(u, v)
			if !g.HasEdge(u, v) {
				op = graph.InsertOp(u, g.MustVertexLabel(u), v, g.MustVertexLabel(v), graph.Label(r.Intn(2)))
			}
			if op.Apply(g) == nil {
				cs = append(cs, op)
			}
		}
		if len(cs) > 0 {
			step[sid], graphs[sid] = cs, g
		}
	}
	return step
}

// cloneAll deep-copies a set of stream graphs.
func cloneAll(graphs map[core.StreamID]*graph.Graph) map[core.StreamID]*graph.Graph {
	out := make(map[core.StreamID]*graph.Graph, len(graphs))
	for sid, g := range graphs {
		out[sid] = g.Clone()
	}
	return out
}
