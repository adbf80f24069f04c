package join

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"nntstream/internal/core"
	"nntstream/internal/graph"
)

// stepRecorder is a vector join whose ApplySteps keeps the per-step pair
// counts of every call the engine makes.
type stepRecorder struct {
	core.Filter
	counts []int
}

func (r *stepRecorder) ApplySteps(steps []map[core.StreamID]graph.ChangeSet, pairs []int) (int, error) {
	n, err := r.Filter.(core.StepApplier).ApplySteps(steps, pairs)
	r.counts = append(r.counts, pairs[:n]...)
	return n, err
}

// joinMemos snapshots what every stream of a vector join keeps beside its
// vectors, in comparable form: Skyline's witness memo (skylineMemos) and
// DSC's dominant counters and covers. NL keeps nothing.
func joinMemos(f core.Filter) any {
	switch f := f.(type) {
	case *Skyline:
		return skylineMemos(f)
	case *DSC:
		out := make(map[core.StreamID][2]any, len(f.streams))
		for sid, s := range f.streams {
			ds := s.vecStream.(*dscStream)
			out[sid] = [2]any{maps.Clone(ds.dom), slices.Clone(ds.cover)}
		}
		return out
	}
	return nil
}

// TestBatchEqualsSteps: a batch of steps the engine hands a vector join at
// once (core.StepApplier) leaves what the same steps sent one at a time
// leave — the same per-step pair counts, memos and answer, and the same
// engine stats — at one worker and at eight. The batches' steps change
// different subsets of the streams. Every other batch has an invalid step
// k ≥ 1: the steps before it are applied, and the canonical graphs end at
// step k−1.
func TestBatchEqualsSteps(t *testing.T) {
	for name, mk := range parallelStrategies(DefaultDepth) {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				r := rand.New(rand.NewSource(62))
				graphs := make(map[core.StreamID]*graph.Graph)
				for sid := core.StreamID(0); sid < 4; sid++ {
					graphs[sid] = randomConnected(r, 10, 3, 2)
				}
				var queries []*graph.Graph
				for range 12 {
					queries = append(queries, randomSub(r, graphs[core.StreamID(r.Intn(4))]))
				}
				join := func() core.Filter {
					f := mk()
					f.(core.ParallelFilter).SetWorkers(workers)
					return f
				}
				build := func(f core.Filter) *core.Monitor {
					m := core.NewMonitor(f)
					for _, q := range queries {
						if _, err := m.AddQuery(q); err != nil {
							t.Fatal(err)
						}
					}
					for sid := core.StreamID(0); sid < 4; sid++ {
						if _, err := m.AddStream(graphs[sid].Clone()); err != nil {
							t.Fatal(err)
						}
					}
					return m
				}
				stepped := join()
				ms := build(stepped)
				batched := &stepRecorder{Filter: join()}
				mb := build(batched)
				for round := range 8 {
					steps := make([]map[core.StreamID]graph.ChangeSet, 2+r.Intn(7))
					bad := len(steps)
					if round%2 == 1 {
						bad = 1 + r.Intn(len(steps)-1)
					}
					var atBad map[core.StreamID]*graph.Graph
					for k := range steps {
						if k == bad {
							atBad = maps.Clone(graphs)
							steps[k] = invalidStep(r, graphs)
							continue
						}
						steps[k] = randomBatch(r, graphs)
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
					at := fmt.Sprintf("round %d (%d steps, invalid %d)", round, len(steps), bad)
					if applied != bad || (err != nil) != (bad < len(steps)) {
						t.Fatalf("%s: StepAllBatch applied %d steps (%v); want %d", at, applied, err, bad)
					}
					if !slices.Equal(batched.counts, want) {
						t.Fatalf("%s: per-step pair counts %v; one step at a time %v", at, batched.counts, want)
					}
					sum := 0
					for _, n := range want {
						sum += n
					}
					if pairs != sum {
						t.Fatalf("%s: StepAllBatch reported %d pairs; its steps %d", at, pairs, sum)
					}
					if got, want := mb.Stats(), ms.Stats(); got.Timestamps != want.Timestamps || got.CandidatePairs != want.CandidatePairs || got.TotalPairs != want.TotalPairs {
						t.Fatalf("%s: stats %+v; one step at a time %+v", at, got, want)
					}
					if got, want := batched.Candidates(), stepped.Candidates(); !slices.Equal(got, want) {
						t.Fatalf("%s: candidates %v; one step at a time %v", at, got, want)
					}
					if got, want := joinMemos(batched.Filter), joinMemos(stepped); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: memos %+v; one step at a time %+v", at, got, want)
					}
					if s, ok := batched.Filter.(*Skyline); ok {
						checkPairMemos(t, &s.vecJoin, at)
					}
					if atBad != nil {
						graphs = atBad
					}
					for sid, g := range graphs {
						if !mb.StreamGraph(sid).Equal(g) || !ms.StreamGraph(sid).Equal(g) {
							t.Fatalf("%s: stream %d's canonical graph is not the one after step %d", at, sid, bad-1)
						}
					}
				}
			})
		}
	}
}

// invalidStep is a step that fails validation: a valid change to one
// stream and, on another, an insert that relabels a present vertex.
func invalidStep(r *rand.Rand, graphs map[core.StreamID]*graph.Graph) map[core.StreamID]graph.ChangeSet {
	scratch := make(map[core.StreamID]*graph.Graph, len(graphs))
	for sid, g := range graphs {
		scratch[sid] = g.Clone()
	}
	step := randomBatch(r, scratch)
	sid := core.StreamID(r.Intn(len(graphs)))
	g := graphs[sid]
	v := g.VertexIDs()[0]
	step[sid] = graph.ChangeSet{graph.InsertOp(v, g.MustVertexLabel(v)+1, 99, 0, 0)}
	return step
}
