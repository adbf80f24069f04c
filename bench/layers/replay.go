package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"nntstream/bench/gen"
	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/iso"
	"nntstream/internal/join"
	"nntstream/internal/nnt"
	"nntstream/internal/npv"
	"nntstream/internal/qindex"
	"nntstream/internal/server"
)

// replayResult is what feeding the workload's change sets straight into the
// inner layers measured — the split no public seam exposes. Times cover the
// measured script only; the warm-up is replayed untimed to reach the same
// state.
type replayResult struct {
	frames                               int
	decode, clone, apply, seal, affected time.Duration
	filter                               time.Duration // a one-worker DSC filter's Apply over the same change sets
	dirty                                int64         // Σ dirty vertices sealed
	qCandidates, qPruned                 int64         // qindex.Counters deltas
	nodes, liveEdges, postings           int           // sizes after the last step
	exactFinal                           int           // (stream, query) pairs that really match at the end
}

func parseGraph(body []byte) (*graph.Graph, error) {
	var req struct {
		Graph server.WireGraph `json:"graph"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	return req.Graph.ToGraph()
}

// indexQuery adds a query's per-vertex packed NPVs to the index under the
// positional keys NL and Skyline use.
func indexQuery(ix *qindex.Index, id int, q *graph.Graph) {
	vecs := npv.PackAll(npv.VectorsByVertex(npv.ProjectGraph(q, join.DefaultDepth)))
	for i, p := range vecs {
		ix.Add(qindex.Key{Query: core.QueryID(id), Vertex: graph.VertexID(i)}, p)
	}
}

func replay(w *gen.Workload) (res replayResult, err error) {
	ix := qindex.New()
	// The production filter on one worker: its Apply is the CPU the traced
	// join.apply_all span spreads over the evaluation pool, and what it
	// spends beyond the bare forest and seal below is the join's own work.
	filter := join.NewDSC(join.DefaultDepth)
	filter.SetWorkers(1)
	queries := map[int]*graph.Graph{}
	registered := 0
	addQuery := func(body []byte) error {
		q, err := parseGraph(body)
		if err != nil {
			return err
		}
		if err := filter.AddQuery(core.QueryID(registered), q); err != nil {
			return err
		}
		indexQuery(ix, registered, q)
		queries[registered] = q
		registered++
		return nil
	}
	for _, body := range w.Queries {
		if err := addQuery(body); err != nil {
			return res, err
		}
	}
	ix.Seal()

	type stream struct {
		canon  *graph.Graph
		forest *nnt.Forest
		space  *npv.Space
	}
	var streams []*stream
	for _, body := range w.Streams {
		g0, err := parseGraph(body)
		if err != nil {
			return res, err
		}
		space := npv.NewSpace()
		space.EnablePacking()
		st := &stream{canon: g0, forest: nnt.NewForest(g0, join.DefaultDepth, space), space: space}
		st.space.SealDirty()
		if err := filter.AddStream(core.StreamID(len(streams)), g0); err != nil {
			return res, err
		}
		streams = append(streams, st)
	}

	var dec server.IngestDecoder
	ingest := func(body []byte, timed bool) error {
		var t replayResult
		for _, line := range bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n")) {
			start := time.Now()
			step, err := dec.DecodeStep(line)
			t.decode += time.Since(start)
			if err != nil {
				return err
			}
			t.frames++
			for _, g := range step.Groups {
				st := streams[g.Stream]
				cs := append(graph.ChangeSet(nil), g.Ops...).Normalize()

				start = time.Now()
				staged := st.canon.Clone()
				t.clone += time.Since(start)
				if err := cs.Apply(staged); err != nil {
					return err
				}
				st.canon = staged

				start = time.Now()
				err := st.forest.ApplySet(cs)
				t.apply += time.Since(start)
				if err != nil {
					return err
				}

				start = time.Now()
				deltas := st.space.SealDirty()
				t.seal += time.Since(start)
				t.dirty += int64(len(deltas))

				start = time.Now()
				ix.AffectedQueries(deltas)
				t.affected += time.Since(start)

				start = time.Now()
				err = filter.Apply(core.StreamID(g.Stream), cs)
				t.filter += time.Since(start)
				if err != nil {
					return err
				}
			}
		}
		if timed {
			res.frames += t.frames
			res.decode += t.decode
			res.clone += t.clone
			res.apply += t.apply
			res.seal += t.seal
			res.affected += t.affected
			res.filter += t.filter
			res.dirty += t.dirty
		}
		return nil
	}

	for _, req := range w.Warmup {
		if err := ingest(req.Body, false); err != nil {
			return res, fmt.Errorf("replaying warm-up: %w", err)
		}
	}
	cand0, pruned0 := qindex.Counters()
	for _, req := range w.Script {
		switch req.Kind {
		case gen.Ingest:
			err = ingest(req.Body, true)
		case gen.AddQuery:
			err = addQuery(req.Body)
		case gen.RemoveQuery:
			ix.RemoveQuery(core.QueryID(req.Query))
			delete(queries, req.Query)
			err = filter.RemoveQuery(core.QueryID(req.Query))
		}
		if err != nil {
			return res, fmt.Errorf("replaying script: %w", err)
		}
	}
	cand1, pruned1 := qindex.Counters()
	res.qCandidates, res.qPruned = cand1-cand0, pruned1-pruned0

	res.postings = ix.PostingCount()
	for _, st := range streams {
		res.nodes += st.forest.TotalNodes()
		res.liveEdges += st.canon.EdgeCount()
		for _, q := range queries {
			if iso.Contains(q, st.canon) {
				res.exactFinal++
			}
		}
	}
	return res, nil
}
