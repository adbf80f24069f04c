package join

import (
	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/npv"
	"nntstream/internal/qindex"
)

// NL is the nested-loop join baseline: whenever a stream changes, every
// registered query is re-checked against it by scanning all (query vertex,
// stream vertex) vector pairs for dominance. Simple, correct, and the
// yardstick the two optimized strategies are measured against — and, having
// no index and no shared state to get wrong, the reference oracle their
// equivalence tests compare with.
//
// NL's strategy half is the trivial one: every query vertex's vector
// decides the verdict, its vectors are not indexed (every query is
// re-probed), a stream keeps nothing beside its vector space, and
// a probe scans the whole space. Registration and the batch driver are
// vecJoin's.
type NL struct{ vecJoin }

var (
	_ core.Filter         = (*NL)(nil)
	_ core.BatchApplier   = (*NL)(nil)
	_ core.ParallelFilter = (*NL)(nil)
	_ core.MetricsFilter  = (*NL)(nil)
)

// NewNL returns a nested-loop filter with the given NNT depth.
func NewNL(depth int) *NL {
	return &NL{newVecJoin(depth, false, npv.ProjectPacked, func(_ *qindex.Index, store *npv.Store) vecStream { return nlStream{store} })}
}

// Name implements core.Filter.
func (f *NL) Name() string { return "NPV-NL" }

// nlStream is NL's vecStream: the bare NPV store.
type nlStream struct{ store *npv.Store }

func (s nlStream) reconcile([]bool) ([]core.QueryID, bool) { return nil, len(s.store.SealDirty()) > 0 }

func (s nlStream) probe(ts []pairTask) {
	for i := range ts {
		t := &ts[i]
		t.ok, t.scanned = evalQuery(s.store, t.q.vecs, &t.tally)
	}
}

// settle, forget and fresh are no-ops: the oracle keeps no memo.
func (nlStream) settle([]pairTask) {}
func (nlStream) forget(int32)      {}
func (nlStream) fresh(int32)       {}

// evalQuery is the pure dominance check one pair task runs: it reads the
// stream space and the query vectors, and touches no filter state, which is
// what makes the fan-out safe.
//
//nnt:hotpath
func evalQuery(store *npv.Store, vecs []npv.PackedVector, t *npv.Tally) (bool, int64) {
	var total int64
	for _, u := range vecs {
		found, scanned := dominatedByAny(store, u, t)
		total += int64(scanned)
		if !found {
			return false, total
		}
	}
	return true, total
}

// dominatedByAny reports whether any vector in the stream's space dominates
// u, along with the number of vectors scanned before deciding (the
// nested-loop work measure NL exports). The scan runs entirely on the
// packed kernel — sealed stream vectors against a query vector frozen at
// registration.
//
//nnt:hotpath
func dominatedByAny(store *npv.Store, u npv.PackedVector, t *npv.Tally) (found bool, scanned int) {
	store.PackedVectors(func(v graph.VertexID, p npv.PackedVector) bool {
		scanned++
		if t.Dominates(p, u) {
			found = true
			return false
		}
		return true
	})
	return found, scanned
}
