package factor

import (
	"nntstream/internal/graph"
	"nntstream/internal/npv"
)

// Memo caches per-(vertex, factor) dominance verdicts for one stream
// against one Table. Bit f of bits[v] is set iff stream vertex v's packed
// NPV currently dominates factor f's sub-vector.
//
// The memo follows the same epoch discipline as the packed-vector cache it
// reads: it mutates only inside the per-stream maintenance stage of a
// timestamp (Update, fed by Space.SealDirty), so distinct streams' memos
// update concurrently without locking. The table's factor set is pinned at
// Seal, so the bits never need rebuilding.
type Memo struct {
	tbl  *Table
	bits map[graph.VertexID][]uint64
}

// NewMemo returns an empty memo over t. The table need not be sealed yet;
// Update populates against the sealed set.
func NewMemo(t *Table) *Memo {
	return &Memo{tbl: t, bits: make(map[graph.VertexID][]uint64)}
}

// Has reports the memoized verdict: does vertex v's vector dominate factor
// f? Vertices with no entry (empty or untouched vectors) dominate nothing.
//
//nnt:hotpath
func (m *Memo) Has(v graph.VertexID, f ID) bool {
	w := m.bits[v]
	i := int(f)
	if i>>6 >= len(w) {
		return false
	}
	return w[i>>6]&(1<<(uint(i)&63)) != 0
}

// Update recomputes vertex v's verdict bits against every factor of the
// table — the once-per-(vertex, factor, timestamp) evaluation. present is
// false when v's vector disappeared (all verdicts clear). onFlip is invoked
// for every factor whose verdict changed, with the new value — DSC turns
// these flips into dominant-counter updates. Steady-state the word slice is
// reused in place, so the call does not allocate.
//
//nnt:hotpath
func (m *Memo) Update(v graph.VertexID, p npv.PackedVector, present bool, onFlip func(f ID, now bool)) {
	old := m.bits[v]
	if !present {
		if old == nil {
			return
		}
		for i := range m.tbl.factors {
			if old[i>>6]&(1<<(uint(i)&63)) != 0 {
				onFlip(ID(i), false)
			}
		}
		delete(m.bits, v)
		return
	}
	nf := len(m.tbl.factors)
	if nf == 0 {
		return
	}
	words := (nf + 63) >> 6
	w := old
	if len(w) != words {
		//lint:ignore hotalloc first touch of a vertex sizes its word slice; steady-state updates reuse it in place
		w = make([]uint64, words)
		m.bits[v] = w
	}
	evalsTotal.Add(int64(nf))
	for i, fv := range m.tbl.factors {
		var bit uint64
		if p.Dominates(fv) {
			bit = 1
		}
		wi, sh := i>>6, uint(i)&63
		prev := w[wi] >> sh & 1
		if prev != bit {
			w[wi] ^= 1 << sh
			onFlip(ID(i), bit == 1)
		}
	}
}
