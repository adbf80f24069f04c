package gindex

import (
	"fmt"
	"math"
	"sort"
	"sync"

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
type Filter struct {
	cfg     Config
	queries map[core.QueryID]*graph.Graph
	streams map[core.StreamID]*graph.Graph
	// mu guards dirty and verdict: Candidates rebuilds lazily (re-mining
	// once per timestamp instead of once per changed stream), so unlike the
	// other filters its read path mutates state and must synchronize
	// internally to satisfy the core.Filter contract that Candidates is
	// safe for concurrent readers.
	mu      sync.Mutex
	dirty   bool
	verdict map[core.StreamID]map[core.QueryID]bool
}

var _ core.Filter = (*Filter)(nil)

// New returns a continuous gIndex filter with the given configuration.
func New(cfg Config) *Filter {
	return &Filter{
		cfg:     cfg,
		queries: make(map[core.QueryID]*graph.Graph),
		streams: make(map[core.StreamID]*graph.Graph),
		verdict: make(map[core.StreamID]map[core.QueryID]bool),
	}
}

// Name implements core.Filter.
func (f *Filter) Name() string { return f.cfg.Label }

// AddQuery implements core.Filter.
func (f *Filter) AddQuery(id core.QueryID, q *graph.Graph) error {
	if _, ok := f.queries[id]; ok {
		return fmt.Errorf("gindex: duplicate query %d", id)
	}
	f.queries[id] = q.Clone()
	f.markDirty()
	return nil
}

// RemoveQuery implements core.Filter.
func (f *Filter) RemoveQuery(id core.QueryID) error {
	if _, ok := f.queries[id]; !ok {
		return fmt.Errorf("gindex: unknown query %d", id)
	}
	delete(f.queries, id)
	f.markDirty()
	return nil
}

// AddStream implements core.Filter.
func (f *Filter) AddStream(id core.StreamID, g0 *graph.Graph) error {
	if _, ok := f.streams[id]; ok {
		return fmt.Errorf("gindex: duplicate stream %d", id)
	}
	f.streams[id] = g0.Clone()
	f.markDirty()
	return nil
}

// Apply implements core.Filter.
func (f *Filter) Apply(id core.StreamID, cs graph.ChangeSet) error {
	g, ok := f.streams[id]
	if !ok {
		return fmt.Errorf("gindex: unknown stream %d", id)
	}
	if err := cs.Apply(g); err != nil {
		return err
	}
	f.markDirty()
	return nil
}

func (f *Filter) markDirty() {
	f.mu.Lock()
	f.dirty = true
	f.mu.Unlock()
}

// rebuild re-mines the feature index over the current stream graphs and
// refreshes all verdicts.
func (f *Filter) rebuild() {
	sids := make([]core.StreamID, 0, len(f.streams))
	for sid := range f.streams {
		sids = append(sids, sid)
	}
	sort.Slice(sids, func(i, j int) bool { return sids[i] < sids[j] })
	db := make([]*graph.Graph, len(sids))
	for i, sid := range sids {
		db[i] = f.streams[sid]
	}
	idx := Build(db, f.cfg.MineConfig(len(db)))

	f.verdict = make(map[core.StreamID]map[core.QueryID]bool, len(sids))
	for _, sid := range sids {
		f.verdict[sid] = make(map[core.QueryID]bool, len(f.queries))
	}
	for qid, q := range f.queries {
		cands := idx.Candidates(q, len(db))
		in := make(map[int]bool, len(cands))
		for _, gi := range cands {
			in[gi] = true
		}
		for i, sid := range sids {
			f.verdict[sid][qid] = in[i]
		}
	}
	f.dirty = false
}

// Candidates implements core.Filter. The first call after a change re-mines
// the index; f.mu serializes that rebuild so concurrent readers are safe.
func (f *Filter) Candidates() []core.Pair {
	f.mu.Lock()
	if f.dirty {
		f.rebuild()
	}
	verdict := f.verdict
	f.mu.Unlock()
	var out []core.Pair
	for sid, m := range verdict {
		for qid, ok := range m {
			if ok {
				out = append(out, core.Pair{Stream: sid, Query: qid})
			}
		}
	}
	return core.SortPairs(out)
}
