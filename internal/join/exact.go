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
	rows     map[core.StreamID]*core.VerdictRow
	answer   core.Verdicts
	opts     []iso.Option
}

var _ core.Filter = (*Exact)(nil)
var _ core.CandidateCounter = (*Exact)(nil)

// NewExact returns the exact filter. Options (such as iso.WithNodeLimit)
// are forwarded to every query matcher.
func NewExact(opts ...iso.Option) *Exact {
	return &Exact{
		matchers: make(map[core.QueryID]*iso.Matcher),
		streams:  make(map[core.StreamID]*graph.Graph),
		rows:     make(map[core.StreamID]*core.VerdictRow),
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
	slot := f.answer.AddQuery(id)
	for sid, g := range f.streams {
		f.answer.Set(f.rows[sid], slot, f.matchers[id].Contains(g))
	}
	return nil
}

// RemoveQuery implements core.Filter.
func (f *Exact) RemoveQuery(id core.QueryID) error {
	if _, ok := f.matchers[id]; !ok {
		return fmt.Errorf("join: unknown query %d", id)
	}
	delete(f.matchers, id)
	f.answer.RemoveQuery(id)
	return nil
}

// AddStream implements core.Filter.
func (f *Exact) AddStream(id core.StreamID, g0 *graph.Graph) error {
	if _, ok := f.streams[id]; ok {
		return fmt.Errorf("join: duplicate stream %d", id)
	}
	f.streams[id] = g0.Clone()
	f.rows[id] = f.answer.AddStream(id)
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
	g, row := f.streams[id], f.rows[id]
	qids, slots := f.answer.Queries()
	for i, qid := range qids {
		f.answer.Set(row, slots[i], f.matchers[qid].Contains(g))
	}
}

// Candidates implements core.Filter.
func (f *Exact) Candidates() []core.Pair { return f.answer.Candidates() }

// CandidateCount implements core.CandidateCounter.
func (f *Exact) CandidateCount() int { return f.answer.Count() }
