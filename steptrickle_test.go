package nntstream

import (
	"math/rand"
	"runtime"
	"testing"

	"nntstream/internal/core"
	"nntstream/internal/datagen"
	"nntstream/internal/graph"
	"nntstream/internal/join"
)

// trickleWorkload is the engine-level twin of the repository benchmark's
// trickle workload: one Skyline Monitor (the filter serve runs) over 4
// streams of ~800 edges and 4 queries, advanced by one edge op per step, on
// one stream in turn, plus a second op on stream 0 every fourth step. With
// maintenance and the join this small, what is left is the engine's fixed
// per-step cost — which must not grow with the stream graphs.
type trickleWorkload struct {
	mon *core.Monitor
	// steps is a cycle that returns every stream to its starting graph, so
	// replaying it any number of times stays valid and keeps the size fixed.
	steps []map[core.StreamID]graph.ChangeSet
}

// newTrickleWorkload builds the workload with streams of the given number
// of edges. Each stream's edges come from a universe 25% larger over
// 2·edges/3 labelled vertices (average degree 3); a step alternately
// inserts an absent universe edge and deletes a present one, so a stream
// holds edges or edges+1. extra adds that many more queries per stream, of
// 2–5 edges, drawn from their own source so the streams and steps do not
// depend on it. Past the first distinctExtra, the extra queries of a stream
// repeat those in turn: every extra ≥ distinctExtra registers the same
// distinct query vectors, so the stream stores seal under the same caps
// and only the number of queries sharing each vector grows.
func newTrickleWorkload(tb testing.TB, edges, extra int) *trickleWorkload {
	tb.Helper()
	const streams, half = 4, 256 // half: forward steps before the cycle turns back
	r := rand.New(rand.NewSource(28))
	type stream struct {
		universe []graph.ChangeOp
		present  []bool
		inserts  bool // the next toggle inserts
	}
	ss := make([]*stream, streams)
	w := &trickleWorkload{mon: core.NewMonitor(join.NewSkyline(join.DefaultDepth))}
	var g0s []*graph.Graph
	for i := range ss {
		n := edges * 2 / 3
		labels := make([]graph.Label, n)
		for v := range labels {
			labels[v] = graph.Label(r.Intn(6))
		}
		s := &stream{inserts: true}
		seen := make(map[[2]int]bool)
		for len(s.universe) < edges*5/4 {
			u, v := r.Intn(n), r.Intn(n)
			if u > v {
				u, v = v, u
			}
			if u == v || seen[[2]int{u, v}] {
				continue
			}
			seen[[2]int{u, v}] = true
			s.universe = append(s.universe, graph.InsertOp(
				graph.VertexID(u), labels[u], graph.VertexID(v), labels[v], graph.Label(r.Intn(2))))
		}
		g0 := graph.New()
		s.present = make([]bool, len(s.universe))
		for j := 0; j < edges; j++ {
			if err := s.universe[j].Apply(g0); err != nil {
				tb.Fatal(err)
			}
			s.present[j] = true
		}
		ss[i], g0s = s, append(g0s, g0)
		if _, err := w.mon.AddQuery(datagen.RandomConnectedSubgraph(g0, 8+r.Intn(5), r)); err != nil {
			tb.Fatal(err)
		}
	}
	qr := rand.New(rand.NewSource(29))
	for _, g0 := range g0s {
		var drawn []*graph.Graph
		for k := 0; k < extra; k++ {
			if k < distinctExtra {
				drawn = append(drawn, datagen.RandomConnectedSubgraph(g0, 2+qr.Intn(4), qr))
			}
			if _, err := w.mon.AddQuery(drawn[k%len(drawn)]); err != nil {
				tb.Fatal(err)
			}
		}
	}
	for _, g0 := range g0s {
		if _, err := w.mon.AddStream(g0); err != nil {
			tb.Fatal(err)
		}
	}
	// toggle draws the stream's next op and flips the edge's presence.
	toggle := func(s *stream) graph.ChangeOp {
		for {
			j := r.Intn(len(s.universe))
			if s.present[j] != s.inserts {
				s.present[j] = s.inserts
				s.inserts = !s.inserts
				if s.present[j] {
					return s.universe[j]
				}
				return graph.DeleteOp(s.universe[j].U, s.universe[j].V)
			}
		}
	}
	for t := 0; t < half; t++ {
		step := map[core.StreamID]graph.ChangeSet{core.StreamID(t % streams): {toggle(ss[t%streams])}}
		if t%streams == streams-1 {
			step[0] = graph.ChangeSet{toggle(ss[0])}
		}
		w.steps = append(w.steps, step)
	}
	// The second half undoes the first, step by step in reverse.
	for t := half - 1; t >= 0; t-- {
		inverse := make(map[core.StreamID]graph.ChangeSet, len(w.steps[t]))
		for id, cs := range w.steps[t] {
			op := cs[0]
			if op.Kind == graph.OpInsert {
				inverse[id] = graph.ChangeSet{graph.DeleteOp(op.U, op.V)}
				continue
			}
			for _, e := range ss[id].universe {
				if e.U == op.U && e.V == op.V {
					inverse[id] = graph.ChangeSet{e}
				}
			}
		}
		w.steps = append(w.steps, inverse)
	}
	return w
}

// distinctExtra bounds the distinct extra queries per stream of a
// trickleWorkload.
const distinctExtra = 20

// step advances the monitor by step i of the cycle.
func (w *trickleWorkload) step(tb testing.TB, i int) {
	if _, err := w.mon.StepAll(w.steps[i%len(w.steps)]); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkStepAllTrickle measures the engine's fixed per-step cost;
// TestStepAllAllocsIndependentOfGraphSize caps its allocations.
func BenchmarkStepAllTrickle(b *testing.B) {
	w := newTrickleWorkload(b, 800, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.step(b, i)
	}
}

// maxStepAllTrickleAllocs caps a 1–2-op Skyline step over ~800-edge streams
// near its measured steady state (84 per step over a full cycle). Staging
// that copied every touched graph allocated ~830, and rebuilding the answer
// every step instead of patching it took the count to 90.
const maxStepAllTrickleAllocs = 92

// TestStepAllAllocsIndependentOfGraphSize: a 1–2-op step allocates the same
// whether the streams hold 800 or 1600 edges — staging is O(|Δ|), not
// O(|G|) — and no more than maxStepAllTrickleAllocs. (A clone of every
// touched graph allocates per vertex, which roughly doubles the count with
// the graph.)
func TestStepAllAllocsIndependentOfGraphSize(t *testing.T) {
	allocs := func(edges int) float64 {
		w := newTrickleWorkload(t, edges, 0)
		i := 0
		return testing.AllocsPerRun(len(w.steps), func() {
			w.step(t, i)
			i++
		})
	}
	small, large := allocs(800), allocs(1600)
	if large > small*1.2+1 {
		t.Fatalf("allocs per step grew with the graph: %.1f at 800 edges, %.1f at 1600", small, large)
	}
	if small > maxStepAllTrickleAllocs {
		t.Fatalf("allocs per step at 800 edges = %.1f; cap %d", small, maxStepAllTrickleAllocs)
	}
	t.Logf("allocs per step: %.1f at 800 edges, %.1f at 1600", small, large)
}

// candidateWorkload builds a trickle workload with extra queries per
// stream and runs one full cycle, so the buffers a step reuses have
// reached their largest size.
func candidateWorkload(t *testing.T, extra int) *trickleWorkload {
	w := newTrickleWorkload(t, 800, extra)
	for i := range w.steps {
		w.step(t, i)
	}
	return w
}

// TestStepAllAllocsIndependentOfCandidateCount: under Skyline a step
// allocates exactly the same whether ~200 or ~1600 pairs are candidates.
// A flip writes a verdict and moves the pair count, the collect builds the
// list in one allocation sized by that count, and the pair-task buffer is
// reused, so no allocation count grows with the answer. (Appending the
// list pair by pair costs O(log |answer|) allocations.) Both workloads
// register the same distinct query vectors (distinctExtra): the stores
// seal counts capped at the query maxima, so a query set with other maxima
// reseals other vertices, and allocates for them.
func TestStepAllAllocsIndependentOfCandidateCount(t *testing.T) {
	allocs := func(extra int) (float64, int) {
		w := candidateWorkload(t, extra)
		i := 0
		return testing.AllocsPerRun(len(w.steps), func() {
			w.step(t, i)
			i++
		}), len(w.mon.Candidates())
	}
	small, smallPairs := allocs(20)
	large, largePairs := allocs(165)
	if smallPairs < 150 || largePairs < 1400 {
		t.Fatalf("workloads too small: %d and %d candidate pairs", smallPairs, largePairs)
	}
	if small != large {
		t.Fatalf("allocs per step grew with the answer: %.1f at %d candidate pairs, %.1f at %d",
			small, smallPairs, large, largePairs)
	}
	t.Logf("allocs per step: %.1f at %d and %d candidate pairs", small, smallPairs, largePairs)
}

// TestStepAllBatchBytesIndependentOfCandidateCount: a step that reports
// only its pair count, StepAllBatch's step, allocates no more bytes at
// ~1600 candidate pairs than at ~200. The count is kept as verdicts flip,
// so no step builds or copies the pair list (a copy is 16 B per pair).
func TestStepAllBatchBytesIndependentOfCandidateCount(t *testing.T) {
	bytesPerStep := func(extra int) (float64, int) {
		w := candidateWorkload(t, extra)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		applied, pairs, err := w.mon.StepAllBatch(w.steps)
		runtime.ReadMemStats(&after)
		if err != nil || applied != len(w.steps) {
			t.Fatalf("StepAllBatch applied %d of %d steps: %v", applied, len(w.steps), err)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(applied), pairs / applied
	}
	small, smallPairs := bytesPerStep(20)
	large, largePairs := bytesPerStep(165)
	if smallPairs < 150 || largePairs < 1400 {
		t.Fatalf("workloads too small: %d and %d candidate pairs per step", smallPairs, largePairs)
	}
	if large > small*1.1+64 {
		t.Fatalf("bytes per step grew with the answer: %.0f B at %d candidate pairs, %.0f B at %d",
			small, smallPairs, large, largePairs)
	}
	t.Logf("bytes per step: %.0f B at %d candidate pairs, %.0f B at %d", small, smallPairs, large, largePairs)
}
