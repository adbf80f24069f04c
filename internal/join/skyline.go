package join

import (
	"math/bits"
	"slices"
	"sort"

	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/npv"
	"nntstream/internal/obs"
	"nntstream/internal/qindex"
	"nntstream/internal/skyline"
)

// Skyline is the skyline-with-early-stop join (Figure 11). It searches for
// a witness that a pair is NOT joinable: a query vector that no stream
// vector dominates (a bichromatic skyline point of the query set with
// respect to the stream set). Three optimizations from the paper:
//
//  1. Query side: only the maximal (monochromatic skyline) query vectors
//     are checked — if any query vector is undominated, a maximal one is.
//  2. Query side: maximal vectors are probed in an order that favors early
//     stops (descending L1 mass: heavier vectors are harder to dominate).
//  3. Stream side: per-dimension max bounds give an O(|support|) refutation
//     ("no stream vector is large enough in dimension d"), and otherwise
//     only the vectors of the query vector's lowest-cardinality nonzero
//     dimension are scanned, since any dominator must appear there.
//
// Two more optimizations are ours. The maximal vectors of every registered
// query live in a qindex.Index, one entry per distinct vector, and each
// dirty vertex's seal transition is walked over it (qindex.Index.Ranges),
// which names every entry the vertex stopped or started dominating. Each
// stream keeps a witness memo per entry — a vertex that dominates the
// vector, shared by every query that owns it — and a pair is re-evaluated
// only when the memo says its verdict can move: a joinable pair lost the
// witness of one of its vectors, or a refuted pair's refuting vector gained
// a dominator. A re-evaluation scans only the vectors without a witness.
// (NL's full re-evaluation is the reference.)
//
// Skyline is the production join: cmd/serve runs it unless told otherwise.
type Skyline struct{ vecJoin }

// skyStream is Skyline's vecStream: the per-dimension statistics behind the
// max refutation and the probe-dimension choice, kept straight off the seal
// transitions' moves, and the witness memo. A vertex is named by its store
// slot (npv.DirtyDelta.Slot), and vecs holds each slot's sealed vector,
// sharing the store's sealed slices (never written again) rather than
// copying them; a slot that retired holds the empty vector.
type skyStream struct {
	ix    *qindex.Index
	store *npv.Store
	dims  map[npv.Dim]*dimStat
	vecs  []npv.PackedVector
	// The witness memo (DESIGN §7 has its invariants). By index ref: wit is
	// the slot of a vertex whose sealed vector dominates the entry's (-1:
	// none known), need the number of refuted pairs the entry refutes, and
	// open is 1 exactly when the entry has no witness and a positive need —
	// the one byte a rise reads per crossed row. By query slot: refute is
	// the ref that refuted the pair, -1 when it is joinable.
	wit    []int32
	need   []int32
	open   []uint8
	refute []int32
	// The crossing walk's state: its ranges, the refs of one range that
	// pass its pre-pass (sized by reconcile to the longest range), the
	// pairs it queues, and its kernel calls.
	ranges []qindex.Range
	hits   []int32
	queue  qindex.Scratch
	tally  npv.Tally
	// The probe's scratch, by task position: the slots of the dominators
	// the probes found, one per query vector in task order (-1: none), and
	// the ref that refuted each refuted pair.
	wits    []int32
	refutes []int32
}

// dimStat is one dimension's statistics: a bitset over the slots whose
// sealed vector is nonzero in it, their number n, and an upper bound on
// their counts. max rises when a member registers a larger count and is
// never lowered when one shrinks or leaves; it resets only with the member
// set (the dimension is dropped when it empties). So u[d] > max still
// proves no member reaches u, while the member scan after it decides
// exactly — and a removal costs no rescan.
type dimStat struct {
	bits []uint64
	n    int32
	max  int32
}

var (
	_ core.Filter           = (*Skyline)(nil)
	_ core.BatchApplier     = (*Skyline)(nil)
	_ core.ParallelFilter   = (*Skyline)(nil)
	_ core.MetricsFilter    = (*Skyline)(nil)
	_ core.CandidateCounter = (*Skyline)(nil)
)

// NewSkyline returns a skyline-with-early-stop filter with the given NNT
// depth.
func NewSkyline(depth int) *Skyline {
	return &Skyline{newVecJoin(depth, qindex.New(), maximalByMass, func(ix *qindex.Index, store *npv.Store) vecStream {
		ss := &skyStream{ix: ix, store: store, dims: make(map[npv.Dim]*dimStat)}
		for ref := range int32(ix.Refs()) {
			ss.fresh(ref)
		}
		return ss
	})}
}

// Name implements core.Filter.
func (f *Skyline) Name() string { return "NPV-Skyline" }

// maximalByMass derives the vectors that decide a Skyline verdict: only the
// maximal ones (so only they are indexed), heaviest first —
// those are the least likely to be dominated, so a non-joinable pair is
// refuted early.
func maximalByMass(q *graph.Graph, depth int) []npv.PackedVector {
	maximal := skyline.MaximalPacked(npv.ProjectPacked(q, depth))
	sort.Slice(maximal, func(i, j int) bool { return maximal[i].L1() > maximal[j].L1() })
	return maximal
}

// reconcile implements vecStream: it folds every seal transition into the
// statistics and, once the stream has decided pairs, walks it over the
// index, letting crossed keep the witness memo and queue the pairs whose
// verdict can move. Presence changes queue the queries with an empty
// vector, which only they can flip.
func (ss *skyStream) reconcile(verdict []bool) ([]core.QueryID, bool) {
	deltas := ss.store.SealDirty()
	if len(deltas) == 0 {
		return nil, false
	}
	if verdict == nil {
		for _, dl := range deltas {
			ss.fold(dl)
		}
		return nil, true
	}
	ss.ix.Begin(&ss.queue)
	presence := false
	for _, dl := range deltas {
		ss.fold(dl)
		var moved bool
		ss.ranges, moved = ss.ix.Ranges(dl, ss.ranges[:0])
		presence = presence || moved
		for _, rg := range ss.ranges {
			if n := len(rg.Refs); n > len(ss.hits) {
				ss.hits = make([]int32, max(n, 2*len(ss.hits)))
			}
			ss.crossed(rg, dl.Slot, verdict)
		}
	}
	ss.tally.Flush()
	return ss.ix.Finish(&ss.queue, presence), true
}

// fold moves a dirty vertex's slot to its new sealed vector, walking only
// its moves: a dimension it enters (Old 0) sets its bit and may raise the
// max, one it leaves (New 0) clears its bit and is dropped once no member
// is left, and a rise raises the max. A shrink changes nothing, since max
// already bounds the old count. A vertex that appeared has an empty Old
// and a retired one an empty New, so both fall out of the same walk, and
// a retired slot is left empty for the vertex that takes it next.
func (ss *skyStream) fold(dl npv.DirtyDelta) {
	if n := int(dl.Slot) + 1; n > len(ss.vecs) {
		ss.vecs = append(ss.vecs, make([]npv.PackedVector, n-len(ss.vecs))...)
	}
	ss.vecs[dl.Slot] = dl.New
	w, bit := dl.Slot>>6, uint64(1)<<(dl.Slot&63)
	for _, m := range dl.Moves {
		switch {
		case m.Old == 0:
			stat := ss.dims[m.Dim]
			if stat == nil {
				stat = &dimStat{}
				ss.dims[m.Dim] = stat
			}
			if n := int(w) + 1; n > len(stat.bits) {
				stat.bits = append(stat.bits, make([]uint64, n-len(stat.bits))...)
			}
			stat.bits[w] |= bit
			stat.n++
			stat.max = max(stat.max, m.New)
		case m.New == 0:
			stat := ss.dims[m.Dim]
			stat.bits[w] &^= bit
			if stat.n--; stat.n == 0 {
				delete(ss.dims, m.Dim)
			}
		case m.New > m.Old:
			stat := ss.dims[m.Dim]
			stat.max = max(stat.max, m.New)
		}
	}
}

// crossed keeps the witness memo across one crossed range of cur's
// transition, reading the verdicts by slot. A drop means cur's new vector
// no longer dominates the range's vectors, so a witness held by cur is
// cleared without a kernel call, and the entry's joinable owners are
// queued. A rise can only add dominance, and only a refuted pair's
// refuting vector gaining a dominator can flip that pair: so only an open
// entry — no witness, some pair refuted — is tested. The signature filter
// settles most of those, otherwise one kernel call decides, and a
// dominating cur becomes the witness and queues the owners the entry
// refutes.
//
// A pre-pass without branches packs into hits the refs whose memo state
// matters, reading one value per row: a drop whether cur is the witness,
// a rise the open flag. cur was a valid witness of its old vector, so a
// drop needs no signature filter. Only the hits are visited.
//
//nnt:hotpath
func (ss *skyStream) crossed(rg qindex.Range, cur int32, verdict []bool) {
	hits, n := ss.hits, 0
	if rg.Drop {
		for _, ref := range rg.Refs {
			hits[n] = ref
			n += b2i(ss.wit[ref] == cur)
		}
		// A witnessed entry refutes no pair, so it stays closed.
		for _, ref := range hits[:n] {
			ss.wit[ref] = -1
			for _, o := range ss.ix.Entry(ref).Owners {
				if verdict[o.Slot] {
					ss.queue.Collect(o.Slot)
				}
			}
		}
		return
	}
	for _, ref := range rg.Refs {
		hits[n] = ref
		n += int(ss.open[ref])
	}
	for _, ref := range hits[:n] {
		e := ss.ix.Entry(ref)
		if e.Vec.Sig()&^rg.Sig != 0 || !ss.tally.Dominates(ss.vecs[cur], e.Vec) {
			continue
		}
		ss.wit[ref] = cur
		ss.open[ref] = 0
		for _, o := range e.Owners {
			if ss.refute[o.Slot] == ref {
				ss.queue.Collect(o.Slot)
			}
		}
	}
}

// b2i is 1 for true and 0 for false; the compiler lowers it to a flag
// read, not a branch.
//
//nnt:hotpath
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// fresh implements vecStream, resetting what a freed ref left behind.
func (ss *skyStream) fresh(ref int32) {
	for int(ref) >= len(ss.wit) {
		ss.wit = append(ss.wit, -1)
		ss.need = append(ss.need, 0)
		ss.open = append(ss.open, 0)
	}
	ss.wit[ref], ss.need[ref], ss.open[ref] = -1, 0, 0
}

// forget implements vecStream: slot's pair leaves its refuting ref's need.
func (ss *skyStream) forget(slot int32) {
	for int(slot) >= len(ss.refute) {
		ss.refute = append(ss.refute, -1)
	}
	if r := ss.refute[slot]; r >= 0 {
		ss.need[r]--
		ss.open[r] = uint8(b2i(ss.need[r] > 0))
		ss.refute[slot] = -1
	}
}

// probe implements vecStream, sizing the probe's scratch for the tasks
// and cutting each task's witnesses from it.
func (ss *skyStream) probe(ts []pairTask) {
	n := 0
	for i := range ts {
		n += len(ts[i].q.vecs)
	}
	ss.wits = slices.Grow(ss.wits[:0], n)[:n]
	for i := range ss.wits {
		ss.wits[i] = -1
	}
	ss.refutes = slices.Grow(ss.refutes[:0], len(ts))[:len(ts)]
	wits := ss.wits
	for i := range ts {
		k := len(ts[i].q.vecs)
		ss.refutes[i] = ss.probePair(&ts[i], wits[:k:k])
		wits = wits[k:]
	}
}

// probePair decides one pair: joinable iff every maximal query vector is
// dominated by some stream vector. A vector with a witness is dominated
// without a test; the others are probed in order, each dominator found
// going into wits by vector position, and the first one refuted stops the
// scan. It returns the refuting ref, or -1.
//
//nnt:hotpath
func (ss *skyStream) probePair(t *pairTask, wits []int32) int32 {
	t.ok, t.scanned = true, 0
	for i, u := range t.q.vecs {
		ref := t.q.refs[i]
		if ss.wit[ref] >= 0 {
			continue
		}
		w, ok, scanned := dominator(ss, u, &t.tally)
		t.scanned += scanned
		if !ok {
			// u is a bichromatic skyline point of the query vectors with
			// respect to the stream vectors: early stop, prune the pair.
			t.ok = false
			return ref
		}
		wits[i] = w
	}
	return -1
}

// settle implements vecStream in the stream's task, task by task: the
// task's witnesses are recorded, the first found for a ref winning, and
// the pair moves to the need count of the ref that refuted it, if any. A
// dominated entry refutes no pair, so it was closed, and a refuting ref
// has no witness — the probes of one step read the same state — so it
// opens.
func (ss *skyStream) settle(ts []pairTask) {
	wits := ss.wits
	for i := range ts {
		t := &ts[i]
		k := len(t.q.vecs)
		for j, w := range wits[:k] {
			if ref := t.q.refs[j]; w >= 0 && ss.wit[ref] < 0 {
				ss.wit[ref] = w
			}
		}
		wits = wits[k:]
		ss.forget(t.q.slot)
		if !t.ok {
			r := ss.refutes[i]
			ss.refute[t.q.slot] = r
			ss.need[r]++
			ss.open[r] = 1
		}
	}
	ss.wits, ss.refutes = ss.wits[:0], ss.refutes[:0]
}

// dominator implements the stream-side probe for one query vector: whether
// some stream vector dominates u, the slot of the one found (-1 for an
// empty u, which any vertex dominates), and the number of stream vectors
// scanned in the probe loop.
//
//nnt:hotpath
func dominator(ss *skyStream, u npv.PackedVector, t *npv.Tally) (int32, bool, int64) {
	if u.Len() == 0 {
		return -1, ss.store.Len() > 0, 0
	}
	var probe *dimStat
	for i := 0; i < u.Len(); i++ {
		stat := ss.dims[u.Dim(i)]
		if stat == nil || u.Count(i) > stat.max {
			// No stream vector reaches u in dimension d (max bounds them
			// all): u is a skyline point, refuted in O(|support|).
			return -1, false, 0
		}
		if probe == nil || stat.n < probe.n {
			probe = stat
		}
	}
	// Any dominator of u is nonzero in every support dimension of u, so it
	// is a member of the probe (minimum-cardinality) dimension: its set
	// bits, in slot order, name the vectors the same reconcile step sealed.
	scanned := int64(0)
	for w, word := range probe.bits {
		for ; word != 0; word &= word - 1 {
			slot := int32(w<<6 | bits.TrailingZeros64(word))
			scanned++
			if t.Dominates(ss.vecs[slot], u) {
				return slot, true, scanned
			}
		}
	}
	return -1, false, scanned
}

// RegisterMetrics implements core.MetricsFilter: the shared vector-join
// series plus the per-dimension statistics the skyline probe keeps.
func (f *Skyline) RegisterMetrics(r *obs.Registry, locked func(func() float64) func() float64) {
	f.vecJoin.RegisterMetrics(r, locked)
	r.GaugeFunc("nntstream_skyline_dimensions",
		"Per-dimension statistics kept, summed over all streams. Sealed stream vectors are capped, so only dimensions some registered query vector uses or has used count.",
		locked(func() float64 {
			dims := 0
			for _, s := range f.streams {
				dims += len(s.vecStream.(*skyStream).dims)
			}
			return float64(dims)
		}))
}
