package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// Kind is the type of one scripted request.
type Kind uint8

const (
	Ingest      Kind = iota // POST /v1/ingest, Body = NDJSON frames
	Read                    // GET /v1/candidates
	AddQuery                // POST /v1/queries, Body = graph JSON
	RemoveQuery             // DELETE /v1/queries/<id of registration index Query>
)

// Request is one scripted client operation.
type Request struct {
	Kind  Kind
	Body  []byte
	Steps int // Ingest: timestamps (frames) in Body
	Ops   int // Ingest: edge operations in Body
	Query int // RemoveQuery: registration index of the query to delete
}

// Workload is the complete, frozen input of one benchmark pass. Query and
// stream IDs are registration order: the server hands out 0, 1, 2, … and the
// ingest frames are rendered against that.
type Workload struct {
	Name    string
	Queries [][]byte  // bodies registered during set-up, in order
	Streams [][]byte  // G0 bodies registered during set-up, in order
	Warmup  []Request // answered inside set-up (first-step seals, lazy builds)
	Script  []Request // the measured phase

	// What the final state must equal, for the from-scratch twin: every
	// stream's graph after Warmup+Script, and the queries still registered
	// (bodies plus their registration indices, ascending).
	FinalStreams [][]byte
	FinalQueries [][]byte
	FinalQueryID []int

	LiveQueries int // registered queries at every measured timestamp
}

// Operations is the number of requests one pass sends: registrations,
// warm-up and script.
func (w *Workload) Operations() int {
	return len(w.Queries) + len(w.Streams) + len(w.Warmup) + len(w.Script)
}

// Spec is one row of the frozen workload table.
type Spec struct {
	Name string
	Why  string
	// Requests is the number of ingest requests in one measured pass at the
	// reference run length; Warmup the ingest requests answered in set-up.
	Requests, Warmup int
	// StepsPerRequest is the number of timestamps per ingest request.
	StepsPerRequest int
	// ReadEvery issues GET /v1/candidates after every k-th ingest request.
	ReadEvery int
	build     func(skel, r *Rand, s Spec, requests int) *Workload
}

// ReferenceSeconds is the measured run length the Requests column was sized
// for: three passes of about ReferenceSeconds/3 each on the 2-core sandbox.
const ReferenceSeconds = 18

// Specs is the workload table. Sizes are constants, not flags: a run is a
// fixed amount of work, and the numbers here were chosen so one pass takes
// about a third of the reference run length on the 2-core sandbox.
var Specs = []Spec{
	{
		Name:     "dense_rewrite",
		Why:      "paper's dense regime: 4 streams rewrite ~17% of their edges per step, so NNT maintenance and step staging dominate and join/qindex idle",
		Requests: 180, Warmup: 30, StepsPerRequest: 1, ReadEvery: 1,
		build: buildDenseRewrite,
	},
	{
		Name:     "many_queries",
		Why:      "1600 overlapping queries over 2 low-churn streams: qindex, factor memos, join evaluation and the large read path dominate; set-up is query registration",
		Requests: 900, Warmup: 20, StepsPerRequest: 1, ReadEvery: 9,
		build: buildManyQueries,
	},
	{
		Name:     "trickle",
		Why:      "one or two edge ops per step on 4 streams of ~800 edges: fixed per-request cost (decode, WAL fsync, O(|G|) stage clone, encode) dominates",
		Requests: 6000, Warmup: 800, StepsPerRequest: 1, ReadEvery: 40,
		build: buildTrickle,
	},
	{
		Name:     "query_churn",
		Why:      "8-step batches interleaved with DELETE oldest + POST new query at 400 live queries: group commit and post-seal index mutation share the clock with stepping",
		Requests: 40, Warmup: 8, StepsPerRequest: 8, ReadEvery: 1,
		build: buildQueryChurn,
	},
}

// Lookup returns the spec with the given name.
func Lookup(name string) (Spec, bool) {
	for _, s := range Specs {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// skeletonSeed fixes every workload's data set — fragments, basic graphs,
// stream templates, every stream's starting graph G0 and the registered
// queries — the way the paper fixes its data sets. NNT cost grows with the
// cube of vertex degree and a (stream, query) verdict is all or nothing, so
// two random draws of a 4-stream, 4-query data set differ by 2× in cost per
// step and by half the range in candidate ratio; a benchmark whose runs use
// different seeds cannot hold a bound over that. The --seed argument drives
// the traffic: every coin flip and toggle of every timestamp.
const skeletonSeed = 2009

// Build generates the workload for a seed. scale multiplies the measured
// request count (run length ÷ reference run length); set-up is not scaled.
func (s Spec) Build(seed uint64, scale float64) *Workload {
	requests := int(float64(s.Requests)*scale + 0.5)
	if requests < s.ReadEvery {
		requests = s.ReadEvery
	}
	// Mix the workload name into both seeds so workloads draw independent
	// streams of randomness.
	h := sha256.Sum256([]byte(s.Name))
	name := binary.LittleEndian.Uint64(h[:8])
	w := s.build(NewRand(skeletonSeed^name), NewRand(seed^name), s, requests)
	w.Name = s.Name
	return w
}

// Digest is the SHA-256 over every byte the workload sends or expects, in
// order; the generator test pins it.
func (w *Workload) Digest() string {
	h := sha256.New()
	section := func(name string, bodies [][]byte) {
		fmt.Fprintf(h, "%s %d\n", name, len(bodies))
		for _, b := range bodies {
			fmt.Fprintf(h, "%d\n", len(b))
			h.Write(b)
		}
	}
	script := func(name string, reqs []Request) {
		fmt.Fprintf(h, "%s %d\n", name, len(reqs))
		for _, q := range reqs {
			fmt.Fprintf(h, "%d %d %d %d %d\n", q.Kind, q.Steps, q.Ops, q.Query, len(q.Body))
			h.Write(q.Body)
		}
	}
	section("queries", w.Queries)
	section("streams", w.Streams)
	script("warmup", w.Warmup)
	script("script", w.Script)
	section("final_streams", w.FinalStreams)
	section("final_queries", w.FinalQueries)
	fmt.Fprintf(h, "ids %v live %d\n", w.FinalQueryID, w.LiveQueries)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// flipWorkload assembles the common shape: register queries and streams,
// then `warmup` + `requests` ingest requests of stepsPer timestamps in which
// stream i advances at timestamp t by next(t, i, f), with a read after every
// ReadEvery-th measured request.
func flipWorkload(s Spec, requests int, queries []*Graph, streams []*Flipper, next func(t, i int, f *Flipper) []Op) *Workload {
	w := &Workload{LiveQueries: len(queries)}
	for i, q := range queries {
		w.Queries = append(w.Queries, GraphBody(q))
		w.FinalQueries = append(w.FinalQueries, w.Queries[i])
		w.FinalQueryID = append(w.FinalQueryID, i)
	}
	for _, f := range streams {
		w.Streams = append(w.Streams, GraphBody(f.Graph()))
	}
	t := 0
	ingest := func() Request {
		req := Request{Kind: Ingest, Steps: s.StepsPerRequest}
		for n := 0; n < s.StepsPerRequest; n++ {
			step := make([]StreamOps, len(streams))
			for i, f := range streams {
				step[i] = StreamOps{Stream: i, Ops: next(t, i, f)}
				req.Ops += len(step[i].Ops)
			}
			req.Body = AppendFrame(req.Body, step)
			t++
		}
		return req
	}
	for i := 0; i < s.Warmup; i++ {
		w.Warmup = append(w.Warmup, ingest())
	}
	for i := 1; i <= requests; i++ {
		w.Script = append(w.Script, ingest())
		if i%s.ReadEvery == 0 {
			w.Script = append(w.Script, Request{Kind: Read})
		}
	}
	for _, f := range streams {
		w.FinalStreams = append(w.FinalStreams, GraphBody(f.Graph()))
	}
	return w
}

// paperStreams draws n basic graphs (T≈40 edges from 20 fragments of I≈10)
// and a coin-flip stream over each one's 1.5×-grown template.
func paperStreams(skel, r *Rand, n int, p1, p2, hotShare float64) (basics []*Graph, streams []*Flipper) {
	frags := Fragments(skel, 20, 10)
	for i := 0; i < n; i++ {
		basic := Assemble(skel, frags, skel.Poisson(40))
		tmpl := Template(skel, basic, 1.5, 6.5)
		basics = append(basics, basic)
		streams = append(streams, NewFlipper(skel, r.Fork(), tmpl, p1, p2, hotShare))
	}
	return basics, streams
}

func everyStep(_, _ int, f *Flipper) []Op { return f.Step() }

func buildDenseRewrite(skel, r *Rand, s Spec, requests int) *Workload {
	basics, streams := paperStreams(skel, r, 4, 0.20, 0.15, 1)
	var queries []*Graph
	for _, b := range basics {
		queries = append(queries, Subgraph(skel, b, 8+skel.Intn(5)))
	}
	return flipWorkload(s, requests, queries, streams, everyStep)
}

func buildManyQueries(skel, r *Rand, s Spec, requests int) *Workload {
	// p1=0.002, p2=0.006 per potential edge, concentrated on a tenth of them.
	_, streams := paperStreams(skel, r, 2, 0.02, 0.06, 0.1)
	var queries []*Graph
	for _, f := range streams {
		queries = append(queries, OverlapQueries(skel, f.Graph(), 25, 32, 6, 0.5)...)
	}
	return flipWorkload(s, requests, queries, streams, everyStep)
}

func buildTrickle(skel, r *Rand, s Spec, requests int) *Workload {
	frags := Fragments(skel, 40, 10)
	var streams []*Flipper
	var queries []*Graph
	for i := 0; i < 4; i++ {
		universe := Assemble(skel, frags, 1000)
		f := NewFlipper(skel, r.Fork(), universe, 0.8, 0.2, 0.1)
		streams = append(streams, f)
		queries = append(queries, Subgraph(skel, f.Graph(), 8+skel.Intn(5)))
	}
	// One op per step, on one stream in turn; every fourth step a second op
	// lands on stream 0. (0.8/0.2 only sets how much of the universe G0
	// holds: ~800 of 1000 edges.)
	return flipWorkload(s, requests, queries, streams, func(t, i int, f *Flipper) []Op {
		if i == t%4 || (t%4 == 3 && i == 0) {
			return f.Toggle()
		}
		return nil
	})
}

func buildQueryChurn(skel, r *Rand, s Spec, requests int) *Workload {
	// The sparse regime's equilibrium (p1/(p1+p2) = 25%) at a tenth of its
	// churn — p1=0.01, p2=0.03 per potential edge — concentrated on a quarter
	// of the edges.
	basics, streams := paperStreams(skel, r, 4, 0.04, 0.12, 0.25)
	// 400 live queries: 50 cores (round-robin over the basics) × 8 variants,
	// 50% overlap. Replacement queries keep cycling through the cores, so
	// the mix of shared structure stays what it was.
	const live, cores, edges, churnPerBatch = 400, 50, 8, 4
	var coreGraphs []*Graph
	for c := 0; c < cores; c++ {
		coreGraphs = append(coreGraphs, Subgraph(skel, basics[c%len(basics)], edges/2))
	}
	nextQuery := 0
	draw := func() *Graph {
		c := nextQuery % cores
		nextQuery++
		q := coreGraphs[c].Clone()
		growSubgraph(skel, basics[c%len(basics)], q, edges)
		return q
	}
	var queries []*Graph
	for i := 0; i < live; i++ {
		queries = append(queries, draw())
	}
	w := flipWorkload(s, requests, queries, streams, everyStep)

	// Weave the churn into the script: after every ingest request, replace
	// the churnPerBatch oldest live queries, one DELETE + POST at a time.
	bodies := append([][]byte(nil), w.Queries...)
	oldest := 0
	var script []Request
	for _, req := range w.Script {
		script = append(script, req)
		if req.Kind != Ingest {
			continue
		}
		for i := 0; i < churnPerBatch; i++ {
			script = append(script, Request{Kind: RemoveQuery, Query: oldest})
			oldest++
			body := GraphBody(draw())
			bodies = append(bodies, body)
			script = append(script, Request{Kind: AddQuery, Body: body})
		}
	}
	w.Script = script
	w.FinalQueries, w.FinalQueryID = nil, nil
	for i := oldest; i < len(bodies); i++ {
		w.FinalQueries = append(w.FinalQueries, bodies[i])
		w.FinalQueryID = append(w.FinalQueryID, i)
	}
	return w
}
