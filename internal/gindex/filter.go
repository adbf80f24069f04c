package gindex

import (
	"fmt"
	"math"
	"slices"

	"nntstream/internal/core"
	"nntstream/internal/graph"
)

// Config selects a gIndex operating point for the continuous filter.
type Config struct {
	// Label names the setting in reports ("gIndex1", "gIndex2").
	Label string
	// MinSupFrac is the minimum support as a fraction of the database
	// size; ignored when MinSupAbs > 0.
	MinSupFrac float64
	// MinSupAbs is an absolute minimum support.
	MinSupAbs int
	// SizeIncreasing applies gIndex's size-increasing support: the
	// threshold ramps linearly with fragment size up to the full minimum
	// support at MaxEdges, keeping small fragments cheap while taming the
	// large-fragment explosion.
	SizeIncreasing bool
	// MaxEdges bounds fragment size.
	MaxEdges int
	// MaxFeatures, MaxEmbeddings, LevelCap, and Gamma bound and shape the
	// miner (see MineConfig).
	MaxFeatures   int
	MaxEmbeddings int
	LevelCap      int
	Gamma         float64
}

// Setting1 is the paper's "gIndex1": large discriminative fragments
// (maxL=10, Θ=0.1N, size-increasing support) — best effectiveness, highest
// (re-)mining cost.
func Setting1() Config {
	return Config{
		Label:          "gIndex1",
		MinSupFrac:     0.1,
		SizeIncreasing: true,
		MaxEdges:       10,
		MaxFeatures:    50000,
		MaxEmbeddings:  32,
		LevelCap:       800,
		Gamma:          1.25,
	}
}

// Setting2 is the paper's "gIndex2": all structures up to size 3 (support
// 1) — cheaper re-mining, weaker pruning.
func Setting2() Config {
	return Config{
		Label:         "gIndex2",
		MinSupAbs:     1,
		MaxEdges:      3,
		MaxFeatures:   50000,
		MaxEmbeddings: 64,
		LevelCap:      4000,
	}
}

// MineConfig derives the miner bounds for a database of the given size.
func (c Config) MineConfig(dbSize int) MineConfig {
	minSup := c.MinSupAbs
	if minSup <= 0 {
		minSup = int(math.Ceil(c.MinSupFrac * float64(dbSize)))
	}
	if minSup < 1 {
		minSup = 1
	}
	mc := MineConfig{
		MinSup:        minSup,
		MaxEdges:      c.MaxEdges,
		MaxFeatures:   c.MaxFeatures,
		MaxEmbeddings: c.MaxEmbeddings,
		LevelCap:      c.LevelCap,
		Gamma:         c.Gamma,
	}
	if c.SizeIncreasing {
		maxEdges, top := c.MaxEdges, minSup
		mc.SupportFunc = func(edges int) int {
			s := int(math.Ceil(float64(top) * float64(edges) / float64(maxEdges)))
			if s < 2 {
				s = 2
			}
			if s > top {
				s = top
			}
			return s
		}
	}
	return mc
}

// Filter adapts gIndex to the continuous setting the way the paper
// evaluates it: the feature set is re-mined over the current stream graphs
// at every timestamp (stream graphs change, and gIndex's features are
// defined by their frequency in the data). This re-mining is exactly the
// cost that makes gIndex1 orders of magnitude slower than the NPV methods
// in Figure 15.
//
// Mining runs on the write path, once per step that changes a stream
// (ApplyAll) and once per AddStream, and only while a query is registered. The mined features
// depend only on the streams, so a query change evaluates that one query
// against the kept index, and a read only reads the answer.
type Filter struct {
	cfg     Config
	queries map[core.QueryID]*graph.Graph
	streams map[core.StreamID]*graph.Graph
	rows    map[core.StreamID]*core.VerdictRow
	sids    []core.StreamID // ascending, the database order idx is mined in
	// idx is the index mined over the current stream graphs, or nil while
	// stale: the streams were added or stepped with no query registered. A
	// query added then is a candidate on every stream, which over-reports
	// and never drops a pair, until the next step re-mines.
	idx    *Index
	answer core.Verdicts
}

var _ core.Filter = (*Filter)(nil)
var _ core.BatchApplier = (*Filter)(nil)
var _ core.CandidateCounter = (*Filter)(nil)

// New returns a continuous gIndex filter with the given configuration.
func New(cfg Config) *Filter {
	return &Filter{
		cfg:     cfg,
		queries: make(map[core.QueryID]*graph.Graph),
		streams: make(map[core.StreamID]*graph.Graph),
		rows:    make(map[core.StreamID]*core.VerdictRow),
	}
}

// Name implements core.Filter.
func (f *Filter) Name() string { return f.cfg.Label }

// AddQuery implements core.Filter: the query is evaluated against the kept
// index, without re-mining.
func (f *Filter) AddQuery(id core.QueryID, q *graph.Graph) error {
	if _, ok := f.queries[id]; ok {
		return fmt.Errorf("gindex: duplicate query %d", id)
	}
	q = q.Clone()
	f.queries[id] = q
	f.evaluate(q, f.answer.AddQuery(id))
	return nil
}

// RemoveQuery implements core.Filter.
func (f *Filter) RemoveQuery(id core.QueryID) error {
	if _, ok := f.queries[id]; !ok {
		return fmt.Errorf("gindex: unknown query %d", id)
	}
	delete(f.queries, id)
	f.answer.RemoveQuery(id)
	return nil
}

// AddStream implements core.Filter.
func (f *Filter) AddStream(id core.StreamID, g0 *graph.Graph) error {
	if _, ok := f.streams[id]; ok {
		return fmt.Errorf("gindex: duplicate stream %d", id)
	}
	f.streams[id] = g0.Clone()
	f.rows[id] = f.answer.AddStream(id)
	i, _ := slices.BinarySearch(f.sids, id)
	f.sids = slices.Insert(f.sids, i, id)
	f.mine()
	return nil
}

// Apply implements core.Filter: a step of one stream.
func (f *Filter) Apply(id core.StreamID, cs graph.ChangeSet) error {
	return f.ApplyAll(map[core.StreamID]graph.ChangeSet{id: cs})
}

// ApplyAll implements core.BatchApplier: it applies one timestamp's change
// sets and then re-mines once. A step that changes no stream keeps a mined
// index.
func (f *Filter) ApplyAll(changes map[core.StreamID]graph.ChangeSet) error {
	if len(changes) == 0 && f.idx != nil {
		return nil
	}
	for id, cs := range changes {
		g, ok := f.streams[id]
		if !ok {
			return fmt.Errorf("gindex: unknown stream %d", id)
		}
		if err := cs.Apply(g); err != nil {
			return err
		}
	}
	f.mine()
	return nil
}

// mine re-mines the index over the current stream graphs and re-evaluates
// every query against it. With no query registered it mines nothing and
// leaves the index stale.
func (f *Filter) mine() {
	if len(f.queries) == 0 {
		f.idx = nil
		return
	}
	db := make([]*graph.Graph, len(f.sids))
	for i, sid := range f.sids {
		db[i] = f.streams[sid]
	}
	f.idx = Build(db, f.cfg.MineConfig(len(db)))
	qids, slots := f.answer.Queries()
	for i, qid := range qids {
		f.evaluate(f.queries[qid], slots[i])
	}
}

// evaluate sets query q's verdicts, in slot, on every stream: the streams
// the index cannot prune, or all of them while the index is stale.
func (f *Filter) evaluate(q *graph.Graph, slot int32) {
	in := make([]bool, len(f.sids))
	if f.idx == nil {
		for i := range in {
			in[i] = true
		}
	} else {
		for _, gi := range f.idx.Candidates(q, len(in)) {
			in[gi] = true
		}
	}
	for gi, sid := range f.sids {
		f.answer.Set(f.rows[sid], slot, in[gi])
	}
}

// Candidates implements core.Filter.
func (f *Filter) Candidates() []core.Pair { return f.answer.Candidates() }

// CandidateCount implements core.CandidateCounter.
func (f *Filter) CandidateCount() int { return f.answer.Count() }
