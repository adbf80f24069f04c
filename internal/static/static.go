// Package static provides subgraph search over a static graph database
// using the paper's NPV feature structure — the setting of its Section V-A
// experiments, and the classic filter-and-verify pipeline of graph-database
// systems: the index prunes non-candidates by per-vertex dominance (Lemma
// 4.2), exact isomorphism verifies the survivors.
package static

import (
	"fmt"

	"nntstream/internal/graph"
	"nntstream/internal/iso"
	"nntstream/internal/npv"
	"nntstream/internal/skyline"
)

// Index is an immutable NPV index over a graph database. Vectors are
// frozen into packed form at build time, so every query evaluation runs on
// the sorted-merge dominance kernel with signature pre-filtering.
type Index struct {
	depth int
	db    []*graph.Graph
	vecs  [][]npv.PackedVector
	// maxs[i][d] is graph i's maximum count in dimension d, the skyline
	// join's cheap refutation applied to the static case.
	maxs []map[npv.Dim]int32
}

// NewIndex projects every database graph at the given NNT depth. The
// database slice is retained; callers must not mutate the graphs.
func NewIndex(db []*graph.Graph, depth int) *Index {
	ix := &Index{
		depth: depth,
		db:    db,
		vecs:  make([][]npv.PackedVector, len(db)),
		maxs:  make([]map[npv.Dim]int32, len(db)),
	}
	for i, g := range db {
		m := make(map[npv.Dim]int32)
		ix.vecs[i] = npv.ProjectPacked(g, depth)
		for _, v := range ix.vecs[i] {
			for j := 0; j < v.Len(); j++ {
				if d, c := v.Dim(j), v.Count(j); c > m[d] {
					m[d] = c
				}
			}
		}
		ix.maxs[i] = m
	}
	return ix
}

// Len reports the database size.
func (ix *Index) Len() int { return len(ix.db) }

// Depth reports the NNT depth bound.
func (ix *Index) Depth() int { return ix.depth }

// Graph returns database graph i.
func (ix *Index) Graph(i int) *graph.Graph { return ix.db[i] }

// Candidates returns the indexes of graphs that pass the NPV dominance
// filter for q, ascending. The result is a superset of the exact answer
// set (no false negatives).
func (ix *Index) Candidates(q *graph.Graph) []int {
	maximal := queryMaximal(q, ix.depth)
	var out []int
graphs:
	for i := range ix.db {
		for _, u := range maximal {
			if !ix.dominated(i, u) {
				continue graphs
			}
		}
		out = append(out, i)
	}
	return out
}

// Search runs the full filter-and-verify pipeline: NPV candidates, then
// exact subgraph isomorphism. The result is exactly the graphs containing
// q.
func (ix *Index) Search(q *graph.Graph) []int {
	m := iso.NewMatcher(q)
	var out []int
	for _, i := range ix.Candidates(q) {
		if m.Contains(ix.db[i]) {
			out = append(out, i)
		}
	}
	return out
}

// SearchStats reports the pruning achieved for one query: candidates after
// filtering, exact answers, and the counts behind the paper's
// candidate-ratio metric.
type SearchStats struct {
	Database   int
	Candidates int
	Answers    int
}

func (s SearchStats) String() string {
	return fmt.Sprintf("db=%d candidates=%d answers=%d (ratio %.2f%%)",
		s.Database, s.Candidates, s.Answers, 100*float64(s.Candidates)/float64(max(1, s.Database)))
}

// SearchWithStats is Search plus instrumentation.
func (ix *Index) SearchWithStats(q *graph.Graph) ([]int, SearchStats) {
	cands := ix.Candidates(q)
	m := iso.NewMatcher(q)
	var out []int
	for _, i := range cands {
		if m.Contains(ix.db[i]) {
			out = append(out, i)
		}
	}
	return out, SearchStats{Database: len(ix.db), Candidates: len(cands), Answers: len(out)}
}

func (ix *Index) dominated(i int, u npv.PackedVector) bool {
	if u.Len() == 0 {
		return len(ix.vecs[i]) > 0
	}
	for j := 0; j < u.Len(); j++ {
		if ix.maxs[i][u.Dim(j)] < u.Count(j) {
			return false
		}
	}
	for _, v := range ix.vecs[i] {
		if v.Dominates(u) {
			return true
		}
	}
	return false
}

func queryMaximal(q *graph.Graph, depth int) []npv.PackedVector {
	return skyline.MaximalPacked(npv.ProjectPacked(q, depth))
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
