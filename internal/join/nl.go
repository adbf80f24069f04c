package join

import (
	"nntstream/internal/core"
	"nntstream/internal/factor"
	"nntstream/internal/npv"
	"nntstream/internal/obs"
)

// NL is the nested-loop join baseline: whenever a stream changes, every
// affected query is re-checked against it by scanning all (query vertex,
// stream vertex) vector pairs for dominance. Simple, correct, and the
// yardstick the two optimized strategies are measured against.
//
// NL's strategy half is the trivial one: every query vertex's vector
// decides the verdict, a stream keeps nothing beside its vector space, and a
// probe scans the whole space. Registration, the query dominance index
// ("affected" means the index's candidates, not all queries — unless
// DisableQueryIndex restores the full scan as the measurement baseline),
// factoring and the batch driver are vecJoin's.
type NL struct{ vecJoin }

var (
	_ core.DynamicFilter  = (*NL)(nil)
	_ core.BatchApplier   = (*NL)(nil)
	_ core.ParallelFilter = (*NL)(nil)
)

// NewNL returns a nested-loop filter with the given NNT depth.
func NewNL(depth int) *NL {
	return &NL{newVecJoin(depth, packQuery, func(st *streamState) vecStream { return nlStream{st} })}
}

// Name implements core.Filter.
func (f *NL) Name() string { return "NPV-NL" }

// nlStream is NL's vecStream: the bare feature structures.
type nlStream struct{ st *streamState }

func (s nlStream) reconcile() []npv.DirtyDelta { return s.st.sealDeltas() }

func (s nlStream) probe(vecs []factor.Factored) (bool, int64) { return evalQuery(s.st, vecs) }

// evalQuery is the pure dominance check one pair task runs: it reads the
// stream space, the factor memo, and the query decompositions, and touches
// no filter state, which is what makes the fan-out safe.
//
//nnt:hotpath
func evalQuery(st *streamState, vecs []factor.Factored) (bool, int64) {
	var total int64
	for _, u := range vecs {
		found, scanned := dominatedByAny(st, u)
		total += int64(scanned)
		if !found {
			return false, total
		}
	}
	return true, total
}

var _ obs.Collector = (*NL)(nil)

// CollectMetrics implements obs.Collector with the nested-loop work and
// structure sizes: query/stream vector counts, scan totals, index postings,
// and the NNT node count of the observed forests.
func (f *NL) CollectMetrics(emit func(name string, value float64)) {
	emit("nntstream_nl_query_vectors", float64(f.queryVectorCount()))
	emit("nntstream_nl_vector_scans_total", float64(f.scans))
	svecs := 0
	for _, s := range f.streams {
		svecs += s.st.space.Len()
	}
	emit("nntstream_nl_stream_vectors", float64(svecs))
	f.collectShared(emit)
}
