package join

import (
	"fmt"

	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/nnt"
	"nntstream/internal/npv"
)

// Branch is the branch-compatible NNT filter of Lemma 4.1, without the NPV
// projection: a pair (G,Q) is a candidate iff every query vertex's NNT is
// branch-compatible with some stream vertex's NNT. It prunes differently
// from the projected filters — branch compatibility tracks label-path sets
// while NPV dominance tracks per-dimension multiplicities — and is more
// expensive per comparison, which is exactly the trade-off Section IV's
// projection was designed around. It exists for the ablation experiment.
//
// Query NNTs are interned by their canonical label trie: template-derived
// query sets repeat whole trees, and two trees with equal tries have
// identical compatibility verdicts against every data tree (the trie *is*
// the branch set — Lemma 4.1 only reads branches). Each stream therefore
// evaluates every distinct trie once per timestamp and all queries sharing
// it reuse the verdict.
type Branch struct {
	depth int
	// queries maps each query to the interning keys of its vertex tries.
	queries map[core.QueryID][]string
	// interned holds one representative NNT per distinct query trie, with a
	// reference count for teardown on query removal.
	interned map[string]*internedTrie
	streams  map[core.StreamID]*branchStream
	answer   core.Verdicts
}

// internedTrie is one distinct query trie: the representative NNT root it
// was built from and the number of query vertices referencing it.
type internedTrie struct {
	root *nnt.Node
	refs int
}

type branchStream struct {
	// forest holds the stream's NNTs (Branch reads whole trees, not
	// vectors); space observes it only to report the dirty vertices.
	forest *nnt.Forest
	space  *npv.Space
	// tries caches the label trie of each stream vertex's NNT; entries of
	// dirty vertices are rebuilt lazily.
	tries map[graph.VertexID]*nnt.Trie
	// shared caches this timestamp's verdict per interned query trie —
	// computed once, read by every query referencing the trie. Cleared
	// when any stream vertex changes (a changed tree can flip any trie's
	// verdict; Branch has no per-trie change tracking).
	shared map[string]bool
	row    *core.VerdictRow
}

var _ core.Filter = (*Branch)(nil)
var _ core.CandidateCounter = (*Branch)(nil)

// NewBranch returns a branch-compatibility filter with the given NNT depth.
func NewBranch(depth int) *Branch {
	return &Branch{
		depth:    depth,
		queries:  make(map[core.QueryID][]string),
		interned: make(map[string]*internedTrie),
		streams:  make(map[core.StreamID]*branchStream),
	}
}

// Name implements core.Filter.
func (f *Branch) Name() string { return "NNT-Branch" }

// AddQuery implements core.Filter.
func (f *Branch) AddQuery(id core.QueryID, q *graph.Graph) error {
	if _, ok := f.queries[id]; ok {
		return fmt.Errorf("join: duplicate query %d", id)
	}
	forest := nnt.NewForest(q, f.depth)
	var keys []string
	forest.Roots(func(_ graph.VertexID, root *nnt.Node) bool {
		key := nnt.BuildTrie(root).Canonical()
		ent := f.interned[key]
		if ent == nil {
			ent = &internedTrie{root: root}
			f.interned[key] = ent
		}
		ent.refs++
		keys = append(keys, key)
		return true
	})
	f.queries[id] = keys
	slot := f.answer.AddQuery(id)
	for _, bs := range f.streams {
		f.answer.Set(bs.row, slot, f.evaluateOne(bs, keys))
	}
	return nil
}

// RemoveQuery implements core.Filter: interned tries the query was
// the last reference of are torn down with it.
func (f *Branch) RemoveQuery(id core.QueryID) error {
	keys, ok := f.queries[id]
	if !ok {
		return fmt.Errorf("join: unknown query %d", id)
	}
	for _, key := range keys {
		ent := f.interned[key]
		ent.refs--
		if ent.refs == 0 {
			delete(f.interned, key)
			for _, bs := range f.streams {
				delete(bs.shared, key)
			}
		}
	}
	delete(f.queries, id)
	f.answer.RemoveQuery(id)
	return nil
}

// AddStream implements core.Filter.
func (f *Branch) AddStream(id core.StreamID, g0 *graph.Graph) error {
	if _, ok := f.streams[id]; ok {
		return fmt.Errorf("join: duplicate stream %d", id)
	}
	space := npv.NewSpace()
	bs := &branchStream{
		forest: nnt.NewForest(g0, f.depth, space),
		space:  space,
		tries:  make(map[graph.VertexID]*nnt.Trie),
		shared: make(map[string]bool),
		row:    f.answer.AddStream(id),
	}
	f.streams[id] = bs
	bs.space.TakeDirty()
	f.evaluate(bs)
	return nil
}

// Apply implements core.Filter.
func (f *Branch) Apply(id core.StreamID, cs graph.ChangeSet) error {
	bs, ok := f.streams[id]
	if !ok {
		return fmt.Errorf("join: unknown stream %d", id)
	}
	if err := bs.forest.ApplySet(cs); err != nil {
		return err
	}
	dirty := bs.space.TakeDirty()
	if len(dirty) == 0 {
		return nil
	}
	for _, v := range dirty {
		delete(bs.tries, v) // rebuilt lazily on next probe
	}
	clear(bs.shared) // any change can flip any trie's verdict
	f.evaluate(bs)
	return nil
}

func (f *Branch) trie(bs *branchStream, v graph.VertexID, root *nnt.Node) *nnt.Trie {
	t, ok := bs.tries[v]
	if !ok {
		t = nnt.BuildTrie(root)
		bs.tries[v] = t
	}
	return t
}

func (f *Branch) evaluate(bs *branchStream) {
	qids, slots := f.answer.Queries()
	for i, qid := range qids {
		f.answer.Set(bs.row, slots[i], f.evaluateOne(bs, f.queries[qid]))
	}
}

// evaluateOne answers one query by reading (or computing, first reader per
// timestamp) the shared verdict of each of its interned tries.
func (f *Branch) evaluateOne(bs *branchStream, keys []string) bool {
	for _, key := range keys {
		ok, cached := bs.shared[key]
		if !cached {
			ok = f.evalTrie(bs, f.interned[key].root)
			bs.shared[key] = ok
		}
		if !ok {
			return false
		}
	}
	return true
}

// evalTrie reports whether some stream vertex's NNT contains every branch
// of the representative query tree.
func (f *Branch) evalTrie(bs *branchStream, qr *nnt.Node) bool {
	found := false
	bs.forest.Roots(func(v graph.VertexID, root *nnt.Node) bool {
		if f.trie(bs, v, root).ContainsBranches(qr) {
			found = true
			return false
		}
		return true
	})
	return found
}

// Candidates implements core.Filter.
func (f *Branch) Candidates() []core.Pair { return f.answer.Candidates() }

// CandidateCount implements core.CandidateCounter.
func (f *Branch) CandidateCount() int { return f.answer.Count() }
