package join

import (
	"fmt"
	"math/rand"
	"testing"

	"nntstream/internal/core"
	"nntstream/internal/datagen"
	"nntstream/internal/graph"
)

// BenchmarkSkylineStepManyQueries is the join's share of the many_queries
// regime: 1600 registered queries of 3–8 edges, drawn from two streams of
// 600 edges over 400 vertices, and a timestamp that toggles two edges of
// each stream. One op is one ApplyAll plus the Candidates read that follows
// every engine step. The steps form a cycle that returns both streams to
// their start graphs, so b.N does not change what a step costs.
func BenchmarkSkylineStepManyQueries(b *testing.B) {
	const streams, vertices, edges, queries, half = 2, 400, 600, 1600, 128
	r := rand.New(rand.NewSource(16))
	type stream struct {
		universe []graph.ChangeOp
		present  []bool
	}
	ss := make([]stream, streams)
	f := NewSkyline(DefaultDepth)
	var g0s []*graph.Graph
	for i := range ss {
		labels := make([]graph.Label, vertices)
		for v := range labels {
			labels[v] = graph.Label(r.Intn(5))
		}
		seen := make(map[[2]int]bool)
		for len(ss[i].universe) < edges*5/4 {
			u, v := r.Intn(vertices), r.Intn(vertices)
			if u >= v || seen[[2]int{u, v}] {
				continue
			}
			seen[[2]int{u, v}] = true
			ss[i].universe = append(ss[i].universe, graph.InsertOp(
				graph.VertexID(u), labels[u], graph.VertexID(v), labels[v], graph.Label(r.Intn(2))))
		}
		g0 := graph.New()
		ss[i].present = make([]bool, len(ss[i].universe))
		for j := 0; j < edges; j++ {
			if err := ss[i].universe[j].Apply(g0); err != nil {
				b.Fatal(err)
			}
			ss[i].present[j] = true
		}
		g0s = append(g0s, g0)
	}
	for q := 0; q < queries; q++ {
		if err := f.AddQuery(core.QueryID(q), datagen.RandomConnectedSubgraph(g0s[q%streams], 3+r.Intn(6), r)); err != nil {
			b.Fatal(err)
		}
	}
	for i, g0 := range g0s {
		if err := f.AddStream(core.StreamID(i), g0); err != nil {
			b.Fatal(err)
		}
	}
	// toggle flips universe edge j of stream i and returns the op doing so.
	toggle := func(i, j int) graph.ChangeOp {
		s := &ss[i]
		s.present[j] = !s.present[j]
		if s.present[j] {
			return s.universe[j]
		}
		return graph.DeleteOp(s.universe[j].U, s.universe[j].V)
	}
	var picks [][streams][2]int
	var steps []map[core.StreamID]graph.ChangeSet
	for t := 0; t < 2*half; t++ {
		if t < half {
			var p [streams][2]int
			for i := range p {
				p[i][0] = r.Intn(len(ss[i].universe))
				for p[i][1] = p[i][0]; p[i][1] == p[i][0]; {
					p[i][1] = r.Intn(len(ss[i].universe))
				}
			}
			picks = append(picks, p)
		}
		// The second half toggles the first half's edges back, in reverse.
		p := picks[min(t, 2*half-1-t)]
		step := make(map[core.StreamID]graph.ChangeSet, streams)
		for i := range p {
			step[core.StreamID(i)] = graph.ChangeSet{toggle(i, p[i][0]), toggle(i, p[i][1])}.Normalize()
		}
		steps = append(steps, step)
	}
	pairs := 0
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if err := f.ApplyAll(steps[n%len(steps)]); err != nil {
			b.Fatal(err)
		}
		pairs += len(f.Candidates())
	}
	b.ReportMetric(float64(pairs)/float64(b.N), "pairs/op")
}

// BenchmarkSkylineStepQueryChurn is the join's share of the query_churn
// regime between registrations: 400 live queries of 8 edges, 50 cores of
// 4 edges with 8 variants each (datagen.OverlapQuerySet), over 4 small
// sparse synthetic streams (datagen.SparseFlipDefaults), whose coin flips
// move most vertices every step. One op is one ApplyAll over the four
// streams plus the Candidates read that follows every engine step; the
// steps run 16 timestamps forward and back (flipCycle), so b.N does not
// change what a step costs. It runs at one and two workers.
func BenchmarkSkylineStepQueryChurn(b *testing.B) {
	queries, streams, cycle := queryChurnRig(b)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			f := NewSkyline(DefaultDepth)
			f.SetWorkers(workers)
			benchSteps(b, f, queries, streams, cycle)
		})
	}
}

// BenchmarkSkylineBatchQueryChurn drives BenchmarkSkylineStepQueryChurn's
// rig the way an ingest request of 8 steps does: one op is one 8-step
// core.Monitor.StepAllBatch, which stages the steps on the canonical
// graphs, hands them to the filter and counts each step's pairs. The
// batches walk the 32-step cycle, so b.N does not change what a batch
// costs. It runs at one and two workers.
func BenchmarkSkylineBatchQueryChurn(b *testing.B) {
	const batch = 8
	queries, streams, cycle := queryChurnRig(b)
	batches := len(cycle) / batch
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			f := NewSkyline(DefaultDepth)
			f.SetWorkers(workers)
			m := core.NewMonitor(f)
			for _, g := range queries {
				if _, err := m.AddQuery(g); err != nil {
					b.Fatal(err)
				}
			}
			for _, st := range streams {
				if _, err := m.AddStream(st.Start.Clone()); err != nil {
					b.Fatal(err)
				}
			}
			run := func(n int) int {
				k := n % batches
				applied, pairs, err := m.StepAllBatch(cycle[k*batch : (k+1)*batch])
				if err != nil || applied != batch {
					b.Fatalf("batch %d applied %d of %d steps: %v", k, applied, batch, err)
				}
				return pairs
			}
			for n := range batches {
				run(n)
			}
			pairs := 0
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				pairs += run(n)
			}
			b.ReportMetric(float64(pairs)/float64(b.N*batch), "pairs/step")
		})
	}
}

// queryChurnRig builds the query_churn join rig: 400 queries of 8 edges,
// 50 cores of 4 edges with 8 variants each (datagen.OverlapQuerySet), 4
// sparse synthetic streams (datagen.SparseFlipDefaults), and their 16
// timestamps forward and back (flipCycle).
func queryChurnRig(b *testing.B) ([]*graph.Graph, []*graph.Stream, []map[core.StreamID]graph.ChangeSet) {
	const streams, cores, perCore, edges, steps = 4, 50, 8, 8, 16
	flip := datagen.SparseFlipDefaults()
	flip.Timestamps = steps
	cfg := datagen.DefaultStreamWorkload(flip)
	cfg.Gen.NumGraphs = streams
	r := rand.New(rand.NewSource(44))
	w := datagen.SyntheticStreams(cfg, r)
	queries := datagen.OverlapQuerySet(w.Basics, cores, perCore, edges, 0.5, r)
	return queries, w.Streams, flipCycle(b, w.Streams)
}

// BenchmarkStepSparseStreams is measurement 2's rig in the ROADMAP: the
// paper's sparse synthetic streams, 64 of them, with 70 queries of 8–12
// edges drawn from their basic graphs, at two workers. One op is one
// ApplyAll over every stream plus a Candidates read, cycling 16 timestamps
// forward and back (flipCycle). NL and Skyline run the same steps, so the
// two joins' per-step costs compare within one run.
func BenchmarkStepSparseStreams(b *testing.B) {
	const streams, live, steps = 64, 70, 16
	flip := datagen.SparseFlipDefaults()
	flip.Timestamps = steps
	cfg := datagen.DefaultStreamWorkload(flip)
	cfg.Gen.NumGraphs = streams
	r := rand.New(rand.NewSource(20))
	w := datagen.SyntheticStreams(cfg, r)
	queries := make([]*graph.Graph, live)
	for i := range queries {
		edges := cfg.QueryMinEdges + r.Intn(cfg.QueryMaxEdges-cfg.QueryMinEdges+1)
		queries[i] = datagen.RandomConnectedSubgraph(w.Basics[i%len(w.Basics)], edges, r)
	}
	cycle := flipCycle(b, w.Streams)
	for _, join := range []struct {
		name string
		mk   func() core.Filter
	}{
		{"NL", func() core.Filter { return NewNL(DefaultDepth) }},
		{"Skyline", func() core.Filter { return NewSkyline(DefaultDepth) }},
	} {
		b.Run(join.name, func(b *testing.B) {
			f := join.mk()
			f.(core.ParallelFilter).SetWorkers(2)
			benchSteps(b, f, queries, w.Streams, cycle)
		})
	}
}

// flipCycle returns the streams' timestamps as batches, forward and then
// undone in reverse, so the cycle returns every stream to its start graph.
// Each undo deletes what its timestamp inserted and reinserts, under the
// labels it had, what it deleted.
func flipCycle(b *testing.B, streams []*graph.Stream) []map[core.StreamID]graph.ChangeSet {
	steps := len(streams[0].Changes)
	cycle := make([]map[core.StreamID]graph.ChangeSet, 2*steps)
	for i := range cycle {
		cycle[i] = make(map[core.StreamID]graph.ChangeSet, len(streams))
	}
	for i, st := range streams {
		sid, g := core.StreamID(i), st.Start.Clone()
		for t, cs := range st.Changes {
			var undo graph.ChangeSet
			for _, op := range cs {
				if op.Kind == graph.OpInsert {
					undo = append(undo, graph.DeleteOp(op.U, op.V))
					continue
				}
				el, _ := g.EdgeLabel(op.U, op.V)
				undo = append(undo, graph.InsertOp(op.U, g.MustVertexLabel(op.U), op.V, g.MustVertexLabel(op.V), el))
			}
			if err := cs.Apply(g); err != nil {
				b.Fatal(err)
			}
			cycle[t][sid], cycle[2*steps-1-t][sid] = cs, undo.Normalize()
		}
	}
	return cycle
}

// benchSteps registers the queries and the streams' start graphs with f,
// runs one cycle to warm its buffers, and times one cycle step, plus the
// Candidates read that follows every engine step, per op.
func benchSteps(b *testing.B, f core.Filter, queries []*graph.Graph, streams []*graph.Stream, cycle []map[core.StreamID]graph.ChangeSet) {
	for q, g := range queries {
		if err := f.AddQuery(core.QueryID(q), g); err != nil {
			b.Fatal(err)
		}
	}
	for i, st := range streams {
		if err := f.AddStream(core.StreamID(i), st.Start.Clone()); err != nil {
			b.Fatal(err)
		}
	}
	step := f.(core.BatchApplier)
	for _, batch := range cycle {
		if err := step.ApplyAll(batch); err != nil {
			b.Fatal(err)
		}
	}
	pairs := 0
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if err := step.ApplyAll(cycle[n%len(cycle)]); err != nil {
			b.Fatal(err)
		}
		pairs += len(f.Candidates())
	}
	b.ReportMetric(float64(pairs)/float64(b.N), "pairs/op")
}

// BenchmarkSkylineQueryChurn is query churn over many streams: the sparse
// synthetic workload (datagen.SparseFlipDefaults) with one stream per basic
// graph, 70 live queries of 8–12 edges drawn from the basic graphs, and 10
// timestamps applied before the clock starts. One op removes the oldest
// query and registers a replacement, so it prices a registration change
// against every stream; replacements cycle through a fixed pool.
func BenchmarkSkylineQueryChurn(b *testing.B) {
	for _, streams := range []int{16, 256} {
		b.Run(fmt.Sprintf("streams=%d", streams), func(b *testing.B) { benchQueryChurn(b, streams) })
	}
}

func benchQueryChurn(b *testing.B, streams int) {
	const live, steps, pool = 70, 10, 256
	flip := datagen.SparseFlipDefaults()
	flip.Timestamps = steps
	cfg := datagen.DefaultStreamWorkload(flip)
	cfg.Gen.NumGraphs = streams
	r := rand.New(rand.NewSource(21))
	w := datagen.SyntheticStreams(cfg, r)
	queries := make([]*graph.Graph, pool)
	for i := range queries {
		edges := cfg.QueryMinEdges + r.Intn(cfg.QueryMaxEdges-cfg.QueryMinEdges+1)
		queries[i] = datagen.RandomConnectedSubgraph(w.Basics[i%len(w.Basics)], edges, r)
	}
	f := NewSkyline(DefaultDepth)
	for q := 0; q < live; q++ {
		if err := f.AddQuery(core.QueryID(q), queries[q]); err != nil {
			b.Fatal(err)
		}
	}
	for i, st := range w.Streams {
		if err := f.AddStream(core.StreamID(i), st.Start.Clone()); err != nil {
			b.Fatal(err)
		}
	}
	for t := 0; t < steps; t++ {
		step := make(map[core.StreamID]graph.ChangeSet, len(w.Streams))
		for i, st := range w.Streams {
			step[core.StreamID(i)] = st.Changes[t]
		}
		if err := f.ApplyAll(step); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		id := core.QueryID(live + n)
		if err := f.RemoveQuery(id - live); err != nil {
			b.Fatal(err)
		}
		if err := f.AddQuery(id, queries[int(id)%pool]); err != nil {
			b.Fatal(err)
		}
	}
}
