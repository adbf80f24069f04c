package join

import (
	"math/rand"
	"reflect"
	"testing"

	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/nnt"
	"nntstream/internal/npv"
)

// forestVectors projects g through materialized NNTs (nnt.Forest +
// npv.ProjectForest), in ascending vertex order. The references below use it
// so that they share no code with the recounting npv.Store the filters run
// on.
func forestVectors(g *graph.Graph, depth int) []npv.Vector {
	return npv.VectorsByVertex(npv.ProjectForest(nnt.NewForest(g, depth)))
}

// mapKernelReference recomputes the Lemma 4.2 candidate set from scratch
// with the original map-based kernel (Vector.Dominates over fresh
// projections): pair (G,Q) passes iff every query vertex NPV is dominated
// by some stream vertex NPV. It is the ground truth the packed kernel must
// reproduce bit-identically.
func mapKernelReference(graphs map[core.StreamID]*graph.Graph, queries []*graph.Graph, depth int) []core.Pair {
	qvecs := make([][]npv.Vector, len(queries))
	for qid, q := range queries {
		qvecs[qid] = forestVectors(q, depth)
	}
	var out []core.Pair
	for sid, g := range graphs {
		gv := forestVectors(g, depth)
		for qid := range queries {
			ok := true
			for _, u := range qvecs[qid] {
				found := false
				for _, v := range gv {
					if v.Dominates(u) {
						found = true
						break
					}
				}
				if !found {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, core.Pair{Stream: sid, Query: core.QueryID(qid)})
			}
		}
	}
	return core.SortPairs(out)
}

// TestPackedKernelMatchesMapKernelRandomized is the representation-change
// contract of the packed-vector tentpole at the filter level: NL, DSC, and
// Skyline — sequential and through the parallel ApplyAll path — report
// candidate sets bit-identical to a from-scratch map-kernel recomputation
// at every timestamp of a randomized multi-stream workload.
func TestPackedKernelMatchesMapKernelRandomized(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		r := rand.New(rand.NewSource(900 + seed))
		depth := 1 + r.Intn(3)
		template := randomConnected(r, 10, 3, 2)
		var queries []*graph.Graph
		for i := 0; i < 3; i++ {
			queries = append(queries, randomSub(r, template))
		}
		var starts []*graph.Graph
		for i := 0; i < 3; i++ {
			starts = append(starts, randomConnected(r, 8+r.Intn(4), 3, 2))
		}
		starts = append(starts, template.Clone())

		for name, mk := range parallelStrategies(depth) {
			rr := rand.New(rand.NewSource(9100 + seed))
			seq := mk()
			par := mk().(interface {
				core.Filter
				core.BatchApplier
				core.ParallelFilter
			})
			par.SetWorkers(4)
			for _, f := range []core.Filter{seq, par} {
				for qid, q := range queries {
					if err := f.AddQuery(core.QueryID(qid), q); err != nil {
						t.Fatal(err)
					}
				}
				for sid, g := range starts {
					if err := f.AddStream(core.StreamID(sid), g); err != nil {
						t.Fatal(err)
					}
				}
			}
			graphs := make(map[core.StreamID]*graph.Graph)
			for sid, g := range starts {
				graphs[core.StreamID(sid)] = g.Clone()
			}
			for step := 0; step < 20; step++ {
				batch := randomBatch(rr, graphs)
				for _, sid := range batchStreamIDs(batch) {
					if err := seq.Apply(sid, batch[sid]); err != nil {
						t.Fatalf("seed=%d %s step=%d: sequential apply: %v", seed, name, step, err)
					}
				}
				if err := par.ApplyAll(batch); err != nil {
					t.Fatalf("seed=%d %s step=%d: parallel apply: %v", seed, name, step, err)
				}
				want := mapKernelReference(graphs, queries, depth)
				if got := seq.Candidates(); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed=%d %s step=%d: sequential packed candidates %v != map kernel %v",
						seed, name, step, got, want)
				}
				if got := par.Candidates(); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed=%d %s step=%d: parallel packed candidates %v != map kernel %v",
						seed, name, step, got, want)
				}
			}
		}
	}
}
