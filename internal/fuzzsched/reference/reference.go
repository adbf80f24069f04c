// Package reference is the naive model the engine and join fuzzers check
// against. It shares no code with the NPV store (internal/npv's Store) or
// the NNT forest (internal/nnt): it counts each vertex's NPV by
// enumerating walks, tests dominance with the map kernel
// npv.Vector.Dominates, and pairs streams and queries in a nested loop —
// the Lemma 4.2 candidate set, computed from scratch. Model adds the
// engine's bookkeeping on top: IDs, LSNs, checkpoints, and the rollback a
// crash makes to the record prefix that survives in the log.
package reference

import (
	"cmp"
	"maps"
	"slices"

	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/npv"
)

// Vectors returns the NPV of every vertex of g, in ascending vertex order.
// Entry ⟨k, a, e, b⟩ of a vertex's vector counts the walks of length k from
// it that use no edge twice and whose last edge, labelled e, runs from an
// a-labelled to a b-labelled vertex: the tree edges at level k of its NNT.
func Vectors(g *graph.Graph, depth int) []npv.Vector {
	var out []npv.Vector
	for _, root := range g.VertexIDs() {
		vec := npv.Vector{}
		var path []graph.Edge
		var walk func(u graph.VertexID)
		walk = func(u graph.VertexID) {
			g.Neighbors(u, func(v graph.VertexID, l graph.Label) bool {
				e := graph.Edge{U: u, V: v}.Canonical()
				if slices.Contains(path, e) {
					return true
				}
				vec[npv.NewDim(byte(len(path)+1), g.MustVertexLabel(u), l, g.MustVertexLabel(v))]++
				if len(path)+1 < depth {
					path = append(path, e)
					walk(v)
					path = path[:len(path)-1]
				}
				return true
			})
		}
		walk(root)
		out = append(out, vec)
	}
	return out
}

// Candidates returns the pairs (G, Q) such that every vector of Q is
// dominated by some vector of G, sorted by stream, then query.
func Candidates(streams map[core.StreamID]*graph.Graph, queries map[core.QueryID]*graph.Graph, depth int) []core.Pair {
	return cache{}.candidates(streams, queries, depth)
}

// cache holds the vectors of graphs that do not change.
type cache map[*graph.Graph][]npv.Vector

func (c cache) vectors(g *graph.Graph, depth int) []npv.Vector {
	if _, ok := c[g]; !ok {
		c[g] = Vectors(g, depth)
	}
	return c[g]
}

func (c cache) candidates(streams map[core.StreamID]*graph.Graph, queries map[core.QueryID]*graph.Graph, depth int) []core.Pair {
	var out []core.Pair
	for _, sid := range keys(streams) {
		gv := c.vectors(streams[sid], depth)
		for _, qid := range keys(queries) {
			if dominated(c.vectors(queries[qid], depth), gv) {
				out = append(out, core.Pair{Stream: sid, Query: qid})
			}
		}
	}
	return out
}

// keys returns m's keys in ascending order.
func keys[K cmp.Ordered, V any](m map[K]V) []K {
	ks := make([]K, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// dominated reports whether every vector of qv is dominated by one of gv.
func dominated(qv, gv []npv.Vector) bool {
	for _, u := range qv {
		if !slices.ContainsFunc(gv, func(v npv.Vector) bool { return v.Dominates(u) }) {
			return false
		}
	}
	return true
}

// state is what an engine holds: its graphs, ID allocators and the LSN of
// its last record. Graphs are never changed in place, so a copy of the
// maps is a snapshot.
type state struct {
	queries map[core.QueryID]*graph.Graph
	streams map[core.StreamID]*graph.Graph
	nextQ   core.QueryID
	nextS   core.StreamID
	lsn     uint64
}

func (s *state) clone() *state {
	c := *s
	c.queries, c.streams = maps.Clone(s.queries), maps.Clone(s.streams)
	return &c
}

// Model is a durable engine as the reference sees it: the live state, the
// state at the last checkpoint, and the acknowledged records since, each
// an op that replays onto a state.
type Model struct {
	depth      int
	cur, saved *state
	log        []func(*state) error
	vecs       cache
}

// NewModel returns the model of an empty engine at the given depth.
func NewModel(depth int) *Model {
	s := &state{queries: map[core.QueryID]*graph.Graph{}, streams: map[core.StreamID]*graph.Graph{}}
	return &Model{depth: depth, cur: s, saved: s.clone(), vecs: cache{}}
}

// commit applies op and, when it succeeds, logs it as one record. An op
// must leave the state alone when it fails.
func (m *Model) commit(op func(*state) error) error {
	if err := op(m.cur); err != nil {
		return err
	}
	m.cur.lsn++
	m.log = append(m.log, op)
	return nil
}

// AddQuery registers q and returns the ID the engine must assign it.
func (m *Model) AddQuery(q *graph.Graph) core.QueryID {
	q = q.Clone()
	_ = m.commit(func(s *state) error { s.queries[s.nextQ] = q; s.nextQ++; return nil })
	return m.cur.nextQ - 1
}

// RemoveQuery removes query id; it fails when id is not live.
func (m *Model) RemoveQuery(id core.QueryID) error {
	return m.commit(func(s *state) error {
		if s.queries[id] == nil {
			return core.ErrUnknownQuery
		}
		delete(s.queries, id)
		return nil
	})
}

// AddStream registers a stream starting at g and returns its ID.
func (m *Model) AddStream(g *graph.Graph) core.StreamID {
	g = g.Clone()
	_ = m.commit(func(s *state) error { s.streams[s.nextS] = g; s.nextS++; return nil })
	return m.cur.nextS - 1
}

// Step applies one timestamp's change sets, all or none: it fails, and
// changes nothing, when a stream is unknown or a set does not apply.
func (m *Model) Step(changes map[core.StreamID]graph.ChangeSet) error {
	return m.commit(func(s *state) error {
		next := make(map[core.StreamID]*graph.Graph, len(changes))
		for id, cs := range changes {
			g := s.streams[id]
			if g == nil {
				return core.ErrUnknownStream
			}
			g = g.Clone()
			if err := cs.Normalize().Apply(g); err != nil {
				return err
			}
			next[id] = g
		}
		maps.Copy(s.streams, next)
		return nil
	})
}

// Checkpoint folds the log into the saved state, as a checkpoint (or a
// clean close) does.
func (m *Model) Checkpoint() {
	m.saved, m.log = m.cur.clone(), nil
}

// Records reports the records logged since the last checkpoint.
func (m *Model) Records() int { return len(m.log) }

// Recover returns the model of the engine that boots after a crash that
// kept the first n records logged since the last checkpoint.
func (m *Model) Recover(n int) *Model {
	r := &Model{depth: m.depth, cur: m.saved.clone(), saved: m.saved, log: m.log[:n:n], vecs: m.vecs}
	for _, op := range r.log {
		_ = op(r.cur)
		r.cur.lsn++
	}
	return r
}

// Candidates returns the reference candidate set of the current state.
func (m *Model) Candidates() []core.Pair {
	return m.vecs.candidates(m.cur.streams, m.cur.queries, m.depth)
}

// Graphs returns the current graphs of p's stream and query.
func (m *Model) Graphs(p core.Pair) (stream, query *graph.Graph) {
	return m.cur.streams[p.Stream], m.cur.queries[p.Query]
}

// Live returns the live query IDs in ascending order.
func (m *Model) Live() []core.QueryID { return keys(m.cur.queries) }

// NextIDs returns the IDs the next AddQuery and AddStream assign.
func (m *Model) NextIDs() (core.QueryID, core.StreamID) { return m.cur.nextQ, m.cur.nextS }

// LSN returns the LSN of the last record applied.
func (m *Model) LSN() uint64 { return m.cur.lsn }
