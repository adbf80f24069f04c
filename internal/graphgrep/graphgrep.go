// Package graphgrep implements the GraphGrep baseline [17]: graphs are
// summarized by path fingerprints — occurrence counts of every labeled
// simple path up to a length bound L — and a query can only be contained in
// a data graph whose fingerprint dominates the query's on every path key.
// The paper uses GraphGrep with L=4 as the fast-but-weak comparison point:
// path features alone admit many false positives (Figures 13–15).
//
// Paths here are vertex-simple (no repeated vertices), enumerated from
// every start vertex, so each undirected path is counted once per
// orientation — consistently for query and data graphs, which preserves the
// dominance argument: an embedding maps distinct simple paths to distinct
// simple paths with identical label strings.
package graphgrep

import (
	"encoding/binary"
	"fmt"

	"nntstream/internal/core"
	"nntstream/internal/graph"
)

// DefaultLength is the paper's GraphGrep setting: all paths up to length 4.
// (Longer settings were reported as too slow to index.)
const DefaultLength = 4

// Fingerprint maps an encoded label path to its occurrence count.
type Fingerprint map[string]int32

// pathKey encodes the label sequence v0 e1 v1 e2 v2 … as a byte string.
func pathKey(labels []graph.Label) string {
	buf := make([]byte, 2*len(labels))
	for i, l := range labels {
		binary.BigEndian.PutUint16(buf[2*i:], uint16(l))
	}
	return string(buf)
}

// Compute enumerates all vertex-simple paths of g with at most maxLen edges
// and returns their counts. Length-0 paths (single vertices) are included;
// they contribute per-label vertex counts.
func Compute(g *graph.Graph, maxLen int) Fingerprint {
	fp := make(Fingerprint)
	onPath := make(map[graph.VertexID]bool, maxLen+1)
	labels := make([]graph.Label, 0, 2*maxLen+1)

	var extend func(v graph.VertexID, depth int)
	extend = func(v graph.VertexID, depth int) {
		fp[pathKey(labels)]++
		if depth == maxLen {
			return
		}
		g.Neighbors(v, func(u graph.VertexID, el graph.Label) bool {
			if onPath[u] {
				return true
			}
			onPath[u] = true
			labels = append(labels, el, g.MustVertexLabel(u))
			extend(u, depth+1)
			labels = labels[:len(labels)-2]
			delete(onPath, u)
			return true
		})
	}

	g.Vertices(func(v graph.VertexID, l graph.Label) bool {
		onPath[v] = true
		labels = append(labels[:0], l)
		extend(v, 0)
		delete(onPath, v)
		return true
	})
	return fp
}

// Covers reports whether fingerprint g dominates fingerprint q: every path
// of q occurs in g at least as often. This is GraphGrep's filtering
// condition; it can never reject a true containment.
func Covers(g, q Fingerprint) bool {
	if len(g) < len(q) {
		return false
	}
	for k, c := range q {
		if g[k] < c {
			return false
		}
	}
	return true
}

// Filter adapts GraphGrep to the continuous setting: the fingerprint of a
// stream is recomputed whenever the stream changes (GraphGrep has no
// incremental maintenance story; recomputation is cheap enough that the
// paper still classifies it as a fast method).
type Filter struct {
	maxLen  int
	queries map[core.QueryID]Fingerprint
	streams map[core.StreamID]*graph.Graph
	fps     map[core.StreamID]Fingerprint
	rows    map[core.StreamID]*core.VerdictRow
	answer  core.Verdicts
}

var _ core.Filter = (*Filter)(nil)
var _ core.CandidateCounter = (*Filter)(nil)

// New returns a GraphGrep filter indexing paths up to maxLen edges.
func New(maxLen int) *Filter {
	if maxLen < 1 {
		panic(fmt.Sprintf("graphgrep: maxLen must be ≥ 1, got %d", maxLen))
	}
	return &Filter{
		maxLen:  maxLen,
		queries: make(map[core.QueryID]Fingerprint),
		streams: make(map[core.StreamID]*graph.Graph),
		fps:     make(map[core.StreamID]Fingerprint),
		rows:    make(map[core.StreamID]*core.VerdictRow),
	}
}

// Name implements core.Filter.
func (f *Filter) Name() string { return fmt.Sprintf("GraphGrep-L%d", f.maxLen) }

// AddQuery implements core.Filter.
func (f *Filter) AddQuery(id core.QueryID, q *graph.Graph) error {
	if _, ok := f.queries[id]; ok {
		return fmt.Errorf("graphgrep: duplicate query %d", id)
	}
	qfp := Compute(q, f.maxLen)
	f.queries[id] = qfp
	slot := f.answer.AddQuery(id)
	for sid, fp := range f.fps {
		f.answer.Set(f.rows[sid], slot, Covers(fp, qfp))
	}
	return nil
}

// RemoveQuery implements core.Filter.
func (f *Filter) RemoveQuery(id core.QueryID) error {
	if _, ok := f.queries[id]; !ok {
		return fmt.Errorf("graphgrep: unknown query %d", id)
	}
	delete(f.queries, id)
	f.answer.RemoveQuery(id)
	return nil
}

// AddStream implements core.Filter.
func (f *Filter) AddStream(id core.StreamID, g0 *graph.Graph) error {
	if _, ok := f.streams[id]; ok {
		return fmt.Errorf("graphgrep: duplicate stream %d", id)
	}
	f.streams[id] = g0.Clone()
	f.rows[id] = f.answer.AddStream(id)
	f.refresh(id)
	return nil
}

// Apply implements core.Filter.
func (f *Filter) Apply(id core.StreamID, cs graph.ChangeSet) error {
	g, ok := f.streams[id]
	if !ok {
		return fmt.Errorf("graphgrep: unknown stream %d", id)
	}
	if err := cs.Apply(g); err != nil {
		return err
	}
	f.refresh(id)
	return nil
}

func (f *Filter) refresh(id core.StreamID) {
	fp := Compute(f.streams[id], f.maxLen)
	f.fps[id] = fp
	qids, slots := f.answer.Queries()
	for i, qid := range qids {
		f.answer.Set(f.rows[id], slots[i], Covers(fp, f.queries[qid]))
	}
}

// Candidates implements core.Filter.
func (f *Filter) Candidates() []core.Pair { return f.answer.Candidates() }

// CandidateCount implements core.CandidateCounter.
func (f *Filter) CandidateCount() int { return f.answer.Count() }
