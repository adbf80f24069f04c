package core

import (
	"cmp"
	"slices"
)

// Verdicts is a filter's answer, one verdict per (stream, query) pair, and
// its one query-slot registry: a stream's row holds its verdicts by the
// dense slot the table issues and recycles, so a filter keeps per-query
// state in arrays by the same slot. Set moves the pair count only when a
// verdict flips, so a step costs nothing proportional to the answer. The
// zero value is an empty table.
type Verdicts struct {
	rows  []*VerdictRow // by ascending stream ID
	qids  []QueryID     // ascending, with their slots in parallel
	slots []int32
	free  []int32
	pairs int
}

// VerdictRow is one stream's verdicts, by query slot.
type VerdictRow struct {
	stream  StreamID
	verdict []bool
}

// BySlot returns the row's verdicts by query slot, to read until the next
// AddQuery.
func (r *VerdictRow) BySlot() []bool { return r.verdict }

// AddQuery registers id, which must be new, and returns its slot: a freed
// one first, otherwise a new one every row gains as false.
func (v *Verdicts) AddQuery(id QueryID) int32 {
	slot := int32(len(v.slots))
	if n := len(v.free); n > 0 {
		slot, v.free = v.free[n-1], v.free[:n-1]
	} else {
		for _, r := range v.rows {
			r.verdict = append(r.verdict, false)
		}
	}
	i, _ := slices.BinarySearch(v.qids, id)
	v.qids = slices.Insert(v.qids, i, id)
	v.slots = slices.Insert(v.slots, i, slot)
	return slot
}

// RemoveQuery drops id's pairs and frees its slot.
func (v *Verdicts) RemoveQuery(id QueryID) {
	i, ok := slices.BinarySearch(v.qids, id)
	if !ok {
		return
	}
	for _, r := range v.rows {
		v.Set(r, v.slots[i], false)
	}
	v.free = append(v.free, v.slots[i])
	v.qids = slices.Delete(v.qids, i, i+1)
	v.slots = slices.Delete(v.slots, i, i+1)
}

// AddStream adds the row of stream id, which must be new, all false.
func (v *Verdicts) AddStream(id StreamID) *VerdictRow {
	r := &VerdictRow{stream: id, verdict: make([]bool, len(v.slots)+len(v.free))}
	i, _ := slices.BinarySearchFunc(v.rows, id, func(r *VerdictRow, id StreamID) int { return cmp.Compare(r.stream, id) })
	v.rows = slices.Insert(v.rows, i, r)
	return r
}

// Queries returns the registered query IDs in ascending order and their
// slots, owned by the table until the next AddQuery or RemoveQuery.
func (v *Verdicts) Queries() ([]QueryID, []int32) { return v.qids, v.slots }

// Set records r's verdict for query slot, moving the pair count if it flips.
//
//nnt:hotpath
func (v *Verdicts) Set(r *VerdictRow, slot int32, ok bool) {
	if r.verdict[slot] == ok {
		return
	}
	r.verdict[slot] = ok
	if ok {
		v.pairs++
	} else {
		v.pairs--
	}
}

// Count returns len(Candidates()).
//
//nnt:hotpath
func (v *Verdicts) Count() int { return v.pairs }

// Candidates returns the true pairs in (stream, query) order. Every pair is
// written and the write position advances by the verdict, so the walk does
// not branch; the one slot past the count takes the writes after the last
// candidate.
func (v *Verdicts) Candidates() []Pair {
	if v.pairs == 0 {
		return nil
	}
	out := make([]Pair, v.pairs+1)
	n := 0
	for _, r := range v.rows {
		verdict := r.verdict
		for i, slot := range v.slots {
			out[n] = Pair{Stream: r.stream, Query: v.qids[i]}
			n += b2i(verdict[slot])
		}
	}
	return out[:n]
}

// b2i is 1 for true and 0 for false, lowered to a flag read, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
