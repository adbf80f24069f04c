// Package server exposes a continuous-monitoring engine over HTTP/JSON: a
// long-running service that accepts query patterns and graph streams,
// advances global timestamps from posted change sets, and reports the
// possibly-joinable pairs — the deployment shape of the paper's motivating
// application (a monitoring daemon fed by live traffic).
//
// The API is versioned under /v1:
//
//	POST   /v1/queries     {"graph": {...}}            → {"id": 0}
//	DELETE /v1/queries/0                               → {"status": "removed"}
//	POST   /v1/streams     {"graph": {...}}            → {"id": 0}
//	POST   /v1/step        {"changes": {"0": [{...}]}} → {"pairs": [...]}
//	POST   /v1/ingest      NDJSON step frames          → {"steps": n, ...}
//	GET    /v1/candidates                              → {"pairs": [...]}
//	GET    /v1/stats
//	GET    /v1/healthz                                 → 200, or 503 once the WAL has failed
package server

import (
	"fmt"
	"slices"
	"strconv"

	"nntstream/internal/core"
	"nntstream/internal/graph"
)

// WireGraph is the JSON form of a labeled graph; ToGraph validates and
// converts it.
type WireGraph = graph.JSON

// WireVertex is one labeled vertex.
type WireVertex = graph.JSONVertex

// WireEdge is one labeled undirected edge.
type WireEdge = graph.JSONEdge

// WireOp is one graph change operation. Op is "ins" or "del"; labels are
// required for insertions only.
type WireOp struct {
	Op     string `json:"op"`
	U      int32  `json:"u"`
	V      int32  `json:"v"`
	ULabel uint16 `json:"ulabel,omitempty"`
	VLabel uint16 `json:"vlabel,omitempty"`
	ELabel uint16 `json:"elabel,omitempty"`
}

// WirePair is one reported (stream, query) pair.
type WirePair struct {
	Stream int `json:"stream"`
	Query  int `json:"query"`
}

// FromGraph converts a graph to wire form.
func FromGraph(g *graph.Graph) WireGraph { return graph.ToJSON(g) }

// ToChangeOp validates and converts one wire op.
func (w WireOp) ToChangeOp() (graph.ChangeOp, error) {
	switch w.Op {
	case "ins":
		return graph.InsertOp(graph.VertexID(w.U), graph.Label(w.ULabel),
			graph.VertexID(w.V), graph.Label(w.VLabel), graph.Label(w.ELabel)), nil
	case "del":
		return graph.DeleteOp(graph.VertexID(w.U), graph.VertexID(w.V)), nil
	default:
		return graph.ChangeOp{}, fmt.Errorf("unknown op %q (want ins or del)", w.Op)
	}
}

// pairBytes sizes a pair-list body up front: one rendered pair with two IDs
// of up to five digits, so typical answers are appended without regrowth.
const pairBytes = len(`{"stream":,"query":},`) + 10

// AppendPairs appends the JSON body of a pair-list answer to b:
// {"pairs":[{"stream":S,"query":Q},…]} and a newline, the bytes
// encoding/json writes for []WirePair, rendered without reflection.
func AppendPairs(b []byte, pairs []core.Pair) []byte {
	b = slices.Grow(b, len(`{"pairs":[]}`)+1+len(pairs)*pairBytes)
	b = append(b, `{"pairs":[`...)
	for i, p := range pairs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"stream":`...)
		b = strconv.AppendInt(b, int64(p.Stream), 10)
		b = append(b, `,"query":`...)
		b = strconv.AppendInt(b, int64(p.Query), 10)
		b = append(b, '}')
	}
	return append(b, "]}\n"...)
}
