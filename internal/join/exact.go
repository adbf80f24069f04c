package join

import (
	"fmt"

	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/iso"
)

// Exact is the ground-truth "filter": it runs full subgraph isomorphism on
// every changed stream. Its candidate set is exactly the joinable pairs, so
// it has zero false positives — at NP-complete per-timestamp cost. It
// exists to measure the effectiveness of the real filters and to
// demonstrate why the paper's problem statement rules this approach out for
// real-time monitoring.
type Exact struct {
	matchers map[core.QueryID]*iso.Matcher
	streams  map[core.StreamID]*graph.Graph
	verdict  map[core.StreamID]map[core.QueryID]bool
	opts     []iso.Option
}

var _ core.Filter = (*Exact)(nil)

// NewExact returns the exact filter. Options (such as iso.WithNodeLimit)
// are forwarded to every query matcher.
func NewExact(opts ...iso.Option) *Exact {
	return &Exact{
		matchers: make(map[core.QueryID]*iso.Matcher),
		streams:  make(map[core.StreamID]*graph.Graph),
		verdict:  make(map[core.StreamID]map[core.QueryID]bool),
		opts:     opts,
	}
}

// Name implements core.Filter.
func (f *Exact) Name() string { return "Exact-VF2" }

// AddQuery implements core.Filter.
func (f *Exact) AddQuery(id core.QueryID, q *graph.Graph) error {
	if _, ok := f.matchers[id]; ok {
		return fmt.Errorf("join: duplicate query %d", id)
	}
	f.matchers[id] = iso.NewMatcher(q.Clone(), f.opts...)
	for sid, g := range f.streams {
		f.verdict[sid][id] = f.matchers[id].Contains(g)
	}
	return nil
}

// RemoveQuery implements core.Filter.
func (f *Exact) RemoveQuery(id core.QueryID) error {
	if _, ok := f.matchers[id]; !ok {
		return fmt.Errorf("join: unknown query %d", id)
	}
	delete(f.matchers, id)
	for _, m := range f.verdict {
		delete(m, id)
	}
	return nil
}

// AddStream implements core.Filter.
func (f *Exact) AddStream(id core.StreamID, g0 *graph.Graph) error {
	if _, ok := f.streams[id]; ok {
		return fmt.Errorf("join: duplicate stream %d", id)
	}
	f.streams[id] = g0.Clone()
	f.verdict[id] = make(map[core.QueryID]bool, len(f.matchers))
	f.evaluate(id)
	return nil
}

// Apply implements core.Filter.
func (f *Exact) Apply(id core.StreamID, cs graph.ChangeSet) error {
	g, ok := f.streams[id]
	if !ok {
		return fmt.Errorf("join: unknown stream %d", id)
	}
	if err := cs.Apply(g); err != nil {
		return err
	}
	f.evaluate(id)
	return nil
}

func (f *Exact) evaluate(id core.StreamID) {
	g := f.streams[id]
	for qid, m := range f.matchers {
		f.verdict[id][qid] = m.Contains(g)
	}
}

// Candidates implements core.Filter.
func (f *Exact) Candidates() []core.Pair {
	var out []core.Pair
	for sid, m := range f.verdict {
		for qid, ok := range m {
			if ok {
				out = append(out, core.Pair{Stream: sid, Query: qid})
			}
		}
	}
	return core.SortPairs(out)
}
