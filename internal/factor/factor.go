// Package factor amortizes DSC's dominance work across overlapping queries.
//
// The realistic many-tenant regime for a continuous-monitoring filter is
// thousands of registered queries that share structure — templates with
// small variations. DSC keeps one dominant counter per (stream vertex,
// query vertex), so ten variants of one template cross the same template
// entries ten times per stream vertex. Following the shared sub-pattern
// decomposition of Choudhury et al. ("Large-Scale Continuous Subgraph
// Queries on Streams", StreamWorks), this package factors the registered
// query vectors into shared sub-vectors and evaluates each shared factor
// once per (vertex, timestamp). DSC is the only user: the measured win is
// on its serve workloads (DESIGN §7); NL and Skyline probe whole vectors.
//
//   - Discovery mines the live query set for entries ((dimension, count)
//     pairs) carried by at least MinSupport registered vectors, then
//     greedily clusters vectors on their popular entries. Each surviving
//     cluster's lower envelope — the dimensions present in every member,
//     at the member-minimum count — becomes one factor.
//
//   - Every registered vector u splits into at most one factor f plus a
//     residual r: r keeps exactly the entries of u not discharged by f
//     (dimensions outside supp(f), plus dimensions where u exceeds f).
//     Since supp(f) ⊆ supp(u) and f ≤ u entrywise,
//
//     p dominates u  ⟺  p dominates f  AND  p dominates r
//
//     — the factor verdict is a necessary condition (a vector cannot be
//     dominated unless its factors are) and together with the residual it
//     is sufficient, so the factored test is bit-identical to the full
//     packed merge.
//
//   - A per-stream Memo caches the per-(vertex, factor) verdicts. At each
//     timestamp seal the dirty vertices re-evaluate every factor exactly
//     once on the packed kernel, and every flipped verdict moves one
//     dominance unit of each member query vertex in DSC's counters.
//
// Lifecycle mirrors the query dominance index: registration appends
// cheaply, Seal runs discovery once when the first stream arrives, and
// post-seal query churn matches new vectors against the existing factor
// set in place. The factor set itself is pinned at Seal — re-discovering
// would reassign every DSC column entry and counter — so memos never need
// rebuilding.
package factor

import (
	"sort"
	"sync/atomic"

	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/npv"
)

// ID names one discovered factor within a Table's current factor epoch.
type ID int32

// None marks an unfactored vector.
const None ID = -1

// Key identifies one registered query vector: the owning query plus a
// vector identity within it (a query-graph vertex, as in qindex.Key).
type Key struct {
	Query  core.QueryID
	Vertex graph.VertexID
}

// Factored is the evaluation-time decomposition of one registered vector.
// Residual always holds the undischarged entries; an unfactored vector has
// Factor == None and Residual == Full, so the factored dominance test
// degenerates to the plain packed merge.
type Factored struct {
	Full     npv.PackedVector
	Factor   ID
	Residual npv.PackedVector
}

// Unfactored wraps p as its own trivial decomposition.
func Unfactored(p npv.PackedVector) Factored {
	return Factored{Full: p, Factor: None, Residual: p}
}

// evalsTotal counts factor verdicts computed at seal time. A process-global
// atomic (memos are sealed inside the join pool's fan-out, and a sharded
// engine holds one table per shard); Stats exposes it as an obs.Collector on
// /v1/metrics.
var evalsTotal atomic.Int64

// Stats is an obs.Collector (satisfied structurally; factor does not import
// obs) reporting the package's process-global counter.
type Stats struct{}

// CollectMetrics emits the seal-time evaluation total.
func (Stats) CollectMetrics(emit func(name string, value float64)) {
	emit("nntstream_factor_evals_total", float64(evalsTotal.Load()))
}

// Counters returns the raw total behind Stats. lookups and rejects are
// always 0 (no filter probes through the memo any more); they stay only
// because bench/layers still reports them, until a [benchmark] PR drops
// those two layer metrics.
func Counters() (evals, lookups, rejects int64) {
	return evalsTotal.Load(), 0, 0
}

// Table is the shared-factor table over one filter's registered query
// vectors. The zero value is not ready; use NewTable. Mutation only happens
// on the engines' serialized registration path; between mutations the table
// is immutable, so the join pool's fan-out reads it race-free.
type Table struct {
	minSupport  int // vectors that must share entries/a cluster to pay off
	minDims     int // minimum factor support size worth a bit probe
	maxClusters int // discovery work bound: vectors beyond it stay unfactored

	vecs   map[Key]npv.PackedVector
	decomp map[Key]Factored

	factors []npv.PackedVector // by ID; built once at Seal
	members []int              // registered vectors currently on each factor

	sealed bool
}

// Defaults for NewTable; see the setters for the trade-offs.
const (
	DefaultMinSupport  = 4
	DefaultMinDims     = 4
	defaultMaxClusters = 256
)

// NewTable returns an empty, unsealed table with default thresholds.
func NewTable() *Table {
	return &Table{
		minSupport:  DefaultMinSupport,
		minDims:     DefaultMinDims,
		maxClusters: defaultMaxClusters,
		vecs:        make(map[Key]npv.PackedVector),
		decomp:      make(map[Key]Factored),
	}
}

// SetMinSupport sets the sharing threshold: an entry is "popular" — and a
// cluster becomes a factor — only when at least k registered vectors carry
// it. Lower values factor more aggressively; below 2 sharing cannot pay.
// Must be called before Seal.
func (t *Table) SetMinSupport(k int) {
	if t.sealed {
		panic("factor: SetMinSupport after Seal")
	}
	if k < 2 {
		k = 2
	}
	t.minSupport = k
}

// SetMinDims sets the smallest factor support size worth a memo probe.
// Must be called before Seal.
func (t *Table) SetMinDims(d int) {
	if t.sealed {
		panic("factor: SetMinDims after Seal")
	}
	if d < 1 {
		d = 1
	}
	t.minDims = d
}

// FactorCount reports the number of discovered factors.
func (t *Table) FactorCount() int { return len(t.factors) }

// VectorCount reports the number of registered vectors.
func (t *Table) VectorCount() int { return len(t.vecs) }

// Factor returns factor f's sub-vector. The result shares the table's
// backing slices and must not be mutated.
func (t *Table) Factor(f ID) npv.PackedVector { return t.factors[f] }

// Members reports how many registered vectors currently reference f.
func (t *Table) Members(f ID) int { return t.members[f] }

// Decomp returns k's decomposition. ok is false before Seal and for
// unregistered keys.
func (t *Table) Decomp(k Key) (Factored, bool) {
	d, ok := t.decomp[k]
	return d, ok
}

// Add registers one query vector under k. Before Seal the vector is only
// stored (discovery runs once over the whole set); afterwards it is matched
// against the existing factors immediately. Registering the same key twice
// is a caller bug and is not detected here — filters already reject
// duplicate query IDs.
func (t *Table) Add(k Key, p npv.PackedVector) {
	t.vecs[k] = p
	if !t.sealed {
		return
	}
	t.decomp[k] = t.match(p)
	if f := t.decomp[k].Factor; f != None {
		t.members[f]++
	}
}

// RemoveQuery drops every vector of q and reports whether q was registered.
func (t *Table) RemoveQuery(q core.QueryID) bool {
	found := false
	for k := range t.vecs {
		if k.Query != q {
			continue
		}
		found = true
		if d, ok := t.decomp[k]; ok && d.Factor != None {
			t.members[d.Factor]--
		}
		delete(t.vecs, k)
		delete(t.decomp, k)
	}
	return found
}

// Seal runs factor discovery over the registered vectors and marks the
// table readable. The first call does the work; later calls are no-ops, so
// filters may call it unconditionally when the first stream arrives.
func (t *Table) Seal() {
	if t.sealed {
		return
	}
	t.sealed = true
	t.discover()
}

// entryKey is one (dimension, count) pair — the unit of sharing.
type entryKey struct {
	d npv.Dim
	c int32
}

// cluster accumulates one candidate factor during discovery: the lower
// envelope (dims present in every member so far, at the member-minimum
// count) plus the member keys.
type cluster struct {
	dims   []npv.Dim
	counts []int32
	sig    uint64
	membs  []Key
}

// discover mines the registered vectors for shared factors and computes
// every decomposition; Seal runs it exactly once. Deterministic: vectors are
// processed in sorted key order and clusters in creation order, so equal
// inputs always produce equal factor sets (the mapdeterm discipline).
func (t *Table) discover() {
	keys := make([]Key, 0, len(t.vecs))
	for k := range t.vecs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Query != keys[j].Query {
			return keys[i].Query < keys[j].Query
		}
		return keys[i].Vertex < keys[j].Vertex
	})

	// Pass 1: entry frequency over distinct vectors.
	freq := make(map[entryKey]int)
	for _, k := range keys {
		p := t.vecs[k]
		for i := 0; i < p.Len(); i++ {
			freq[entryKey{p.Dim(i), p.Count(i)}]++
		}
	}

	// Pass 2: greedy leader clustering on popular entries. A vector joins
	// the cluster with the largest dimension overlap, provided the overlap
	// covers at least MinDims dimensions and half of both sides — template
	// variants coalesce, unrelated queries with incidental overlap do not.
	// The signature popcount is a cheap upper-bound screen only; any
	// deterministic heuristic here is sound, because clustering decides how
	// much is shared, never what a verdict is.
	var clusters []*cluster
	for _, k := range keys {
		p := t.vecs[k]
		var dims []npv.Dim
		var counts []int32
		var sig uint64
		for i := 0; i < p.Len(); i++ {
			if freq[entryKey{p.Dim(i), p.Count(i)}] >= t.minSupport {
				dims = append(dims, p.Dim(i))
				counts = append(counts, p.Count(i))
				sig |= npv.SigBit(p.Dim(i))
			}
		}
		if len(dims) < t.minDims {
			continue
		}
		best, bestOv := -1, 0
		for ci, c := range clusters {
			if popcount64(sig&c.sig) == 0 {
				continue
			}
			ov := overlapDims(dims, counts, c)
			if ov >= t.minDims && 2*ov >= len(c.dims) && 2*ov >= len(dims) && ov > bestOv {
				best, bestOv = ci, ov
			}
		}
		if best >= 0 {
			clusters[best].merge(dims, counts, k)
		} else if len(clusters) < t.maxClusters {
			clusters = append(clusters, &cluster{dims: dims, counts: counts, sig: sig, membs: []Key{k}})
		}
	}

	// Pass 3: surviving clusters become factors; members decompose against
	// the final lower envelope, everything else stays unfactored.
	for _, c := range clusters {
		if len(c.membs) < t.minSupport || len(c.dims) < t.minDims {
			continue
		}
		id := ID(len(t.factors))
		t.factors = append(t.factors, packEntries(c.dims, c.counts))
		t.members = append(t.members, len(c.membs))
		for _, k := range c.membs {
			t.decomp[k] = t.decompose(t.vecs[k], id)
		}
	}
	for _, k := range keys {
		if _, ok := t.decomp[k]; !ok {
			t.decomp[k] = Unfactored(t.vecs[k])
		}
	}
}

// overlapDims counts the dimensions of (dims, counts) shared with c's
// current envelope, irrespective of count (the envelope takes minimums at
// merge time).
func overlapDims(dims []npv.Dim, counts []int32, c *cluster) int {
	i, j, ov := 0, 0, 0
	for i < len(dims) && j < len(c.dims) {
		switch {
		case dims[i] < c.dims[j]:
			i++
		case c.dims[j] < dims[i]:
			j++
		default:
			ov++
			i++
			j++
		}
	}
	return ov
}

// merge intersects c's envelope with (dims, counts), keeping shared
// dimensions at the minimum count, and records the member.
func (c *cluster) merge(dims []npv.Dim, counts []int32, k Key) {
	outD := c.dims[:0]
	outC := c.counts[:0]
	var sig uint64
	i, j := 0, 0
	for i < len(dims) && j < len(c.dims) {
		switch {
		case dims[i] < c.dims[j]:
			i++
		case c.dims[j] < dims[i]:
			j++
		default:
			cnt := counts[i]
			if c.counts[j] < cnt {
				cnt = c.counts[j]
			}
			outD = append(outD, c.dims[j])
			outC = append(outC, cnt)
			sig |= npv.SigBit(c.dims[j])
			i++
			j++
		}
	}
	c.dims, c.counts, c.sig = outD, outC, sig
	c.membs = append(c.membs, k)
}

// match finds the best existing factor for a post-seal vector: among the
// applicable factors (supp(f) ⊆ supp(p), f ≤ p entrywise) the one
// discharging the most entries exactly, requiring at least MinDims
// discharged; ties break toward the lowest ID. Unmatched vectors stay
// unfactored: the factor set is pinned at Seal.
func (t *Table) match(p npv.PackedVector) Factored {
	best, bestDis := None, 0
	for id, fv := range t.factors {
		dis, ok := applicability(fv, p)
		if ok && dis >= t.minDims && dis > bestDis {
			best, bestDis = ID(id), dis
		}
	}
	if best == None {
		return Unfactored(p)
	}
	return t.decompose(p, best)
}

// applicability reports whether f can factor p (supp(f) ⊆ supp(p) with
// f ≤ p entrywise) and, when it can, how many entries it discharges
// exactly (equal counts).
func applicability(f, p npv.PackedVector) (discharged int, ok bool) {
	if f.Sig()&^p.Sig() != 0 || f.Len() > p.Len() {
		return 0, false
	}
	j := 0
	for i := 0; i < f.Len(); i++ {
		d := f.Dim(i)
		for j < p.Len() && p.Dim(j) < d {
			j++
		}
		if j == p.Len() || p.Dim(j) != d || p.Count(j) < f.Count(i) {
			return 0, false
		}
		if p.Count(j) == f.Count(i) {
			discharged++
		}
		j++
	}
	return discharged, true
}

// decompose splits p against factor id: the residual keeps every entry of
// p not discharged exactly by the factor (dimensions outside the factor's
// support, plus dimensions where p exceeds the envelope).
func (t *Table) decompose(p npv.PackedVector, id ID) Factored {
	fv := t.factors[id]
	res := make(npv.Vector, p.Len())
	for i := 0; i < p.Len(); i++ {
		d, c := p.Dim(i), p.Count(i)
		if fc := fv.Get(d); fc == 0 || c > fc {
			res[d] = c
		}
	}
	return Factored{Full: p, Factor: id, Residual: npv.Pack(res)}
}

// packEntries freezes a sorted (dims, counts) envelope into packed form.
func packEntries(dims []npv.Dim, counts []int32) npv.PackedVector {
	v := make(npv.Vector, len(dims))
	for i, d := range dims {
		v[d] = counts[i]
	}
	return npv.Pack(v)
}

// popcount64 is bits.OnesCount64 without the import.
func popcount64(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// CollectMetrics reports the table's structural gauges under the shared
// nntstream_factor_ prefix (an obs.Collector, satisfied structurally).
// Discharged entries measure the sharing the table actually bought: vector
// entries answered by a factor bit instead of a residual merge.
func (t *Table) CollectMetrics(emit func(name string, value float64)) {
	emit("nntstream_factor_factors", float64(len(t.factors)))
	emit("nntstream_factor_vectors", float64(len(t.vecs)))
	factored, discharged := 0, 0
	for _, d := range t.decomp {
		if d.Factor == None {
			continue
		}
		factored++
		discharged += d.Full.Len() - d.Residual.Len()
	}
	emit("nntstream_factor_vectors_factored", float64(factored))
	emit("nntstream_factor_discharged_entries", float64(discharged))
}
