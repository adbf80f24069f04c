package npv

import (
	"slices"
	"sync/atomic"
)

// PackedVector is the frozen, evaluation-time form of an NPV: the support
// in ascending Dim order in one slice, the matching counts in a parallel
// slice, and a 64-bit support signature (one bit per hashed dimension).
// Store seals stream vectors straight into it, and query projection returns
// it; the map-backed Vector serves only the forest observer and tests.
//
// The dominance test of Lemma 4.2 reads whole vectors for every (stream,
// query) pair it decides. Packed form turns that read into a
// branch-predictable linear merge over two sorted slices with zero map
// lookups and zero allocations, preceded by two O(1) rejects:
//
//  1. the support-size check (v cannot dominate u with a smaller support),
//  2. the signature subset test: every dimension of u sets one hashed bit
//     in u's signature, so support(u) ⊆ support(v) implies
//     sig(u) &^ sig(v) == 0 — a nonzero result proves some dimension of u
//     is missing from v, hence v cannot dominate u. The signature can only
//     produce false accepts (hash collisions), never false rejects, so the
//     filter is sound: it never fires when dominance holds.
//
// Dominance over packed vectors is bit-identical to Vector.Dominates — a
// pure representation change, pinned by the property and fuzz tests.
//
// The zero value is the packed empty vector. PackedVector values share
// their backing slices when copied; they are immutable by convention —
// nothing in this package mutates a PackedVector once Pack or a seal has
// returned it.
type PackedVector struct {
	dims   []Dim
	counts []int32
	sig    uint64
}

// Kernel telemetry: total dominance tests answered by the packed kernel and
// how many were settled by the signature subset reject alone. The counters
// are process-global atomics (the kernel runs concurrently inside the join
// pool's fan-out); the server registers them as scrape-time counters so the
// signature filter's selectivity is observable via /v1/metrics. Hot callers
// count into a task-local Tally and flush it once per task, so the shared
// cache line is touched per task rather than per test.
var (
	dominanceTests atomic.Int64
	sigRejects     atomic.Int64
)

// KernelCounters returns the packed kernel's process-global totals.
func KernelCounters() (tests, sigRejected int64) {
	return dominanceTests.Load(), sigRejects.Load()
}

// Tally counts dominance tests run through it until Flush adds them to the
// process-global totals. The zero value is ready; a Tally is owned by one
// goroutine.
type Tally struct{ tests, sigRejects int64 }

// Dominates is p.Dominates(u), counted into t.
//
//nnt:hotpath
func (t *Tally) Dominates(p, u PackedVector) bool {
	t.tests++
	if len(u.dims) == 0 {
		return true
	}
	if len(p.dims) < len(u.dims) {
		return false
	}
	if u.sig&^p.sig != 0 {
		t.sigRejects++
		return false
	}
	i := 0
	for j, d := range u.dims {
		for i < len(p.dims) && p.dims[i] < d {
			i++
		}
		if i == len(p.dims) || p.dims[i] != d || p.counts[i] < u.counts[j] {
			return false
		}
		i++
	}
	return true
}

// Flush adds t's counts to the process-global totals and resets t.
func (t *Tally) Flush() {
	if t.tests != 0 {
		dominanceTests.Add(t.tests)
	}
	if t.sigRejects != 0 {
		sigRejects.Add(t.sigRejects)
	}
	*t = Tally{}
}

// sigBit maps a dimension to one of 64 signature bits. Fibonacci hashing
// spreads the packed level│from│edge│to encoding (whose entropy sits in
// scattered bit groups) across the top bits.
//
//nnt:hotpath
func sigBit(d Dim) uint64 {
	return 1 << (uint64(d) * 0x9E3779B97F4A7C15 >> 58)
}

// Pack freezes v into packed form. The result does not alias v.
func Pack(v Vector) PackedVector {
	if len(v) == 0 {
		return PackedVector{}
	}
	dims := v.Support()
	counts := make([]int32, len(dims))
	var sig uint64
	for i, d := range dims {
		counts[i] = v[d]
		sig |= sigBit(d)
	}
	return PackedVector{dims: dims, counts: counts, sig: sig}
}

// PackAll packs every vector of a slice, preserving order.
func PackAll(vecs []Vector) []PackedVector {
	out := make([]PackedVector, len(vecs))
	for i, v := range vecs {
		out[i] = Pack(v)
	}
	return out
}

// Len reports the support size (number of nonzero dimensions).
func (p PackedVector) Len() int { return len(p.dims) }

// Dim returns the i-th support dimension (ascending order).
func (p PackedVector) Dim(i int) Dim { return p.dims[i] }

// Count returns the count of the i-th support dimension.
func (p PackedVector) Count(i int) int32 { return p.counts[i] }

// Sig returns the 64-bit support signature.
func (p PackedVector) Sig() uint64 { return p.sig }

// Get returns the count for d (zero when absent) by binary search.
//
//nnt:hotpath
func (p PackedVector) Get(d Dim) int32 {
	if i, ok := p.Find(d); ok {
		return p.counts[i]
	}
	return 0
}

// Find returns the support position of d, and false when d is absent.
//
//nnt:hotpath
func (p PackedVector) Find(d Dim) (int, bool) {
	if p.sig&sigBit(d) == 0 {
		return 0, false
	}
	return slices.BinarySearch(p.dims, d)
}

// L1 returns the sum of all counts (see Vector.L1).
//
//nnt:hotpath
func (p PackedVector) L1() int64 {
	var s int64
	for _, c := range p.counts {
		s += int64(c)
	}
	return s
}

// Unpack reconstructs the map form. Pack(p.Unpack()) round-trips exactly.
func (p PackedVector) Unpack() Vector {
	out := make(Vector, len(p.dims))
	for i, d := range p.dims {
		out[d] = p.counts[i]
	}
	return out
}

// Equal reports entry-wise equality.
//
//nnt:hotpath
func (p PackedVector) Equal(q PackedVector) bool {
	if len(p.dims) != len(q.dims) || p.sig != q.sig {
		return false
	}
	for i, d := range p.dims {
		if q.dims[i] != d || q.counts[i] != p.counts[i] {
			return false
		}
	}
	return true
}

// String renders the packed vector like its map form.
func (p PackedVector) String() string { return p.Unpack().String() }

// Dominates reports whether p dominates u in the sense of Lemma 4.2,
// exactly as Vector.Dominates does: on every dimension of u's support, p's
// count is at least u's. The fast rejects run first; the merge walks both
// sorted supports in lockstep and never allocates. Each call flushes its own
// count; loops over many vectors use a Tally instead.
//
//nnt:hotpath
func (p PackedVector) Dominates(u PackedVector) bool {
	var t Tally
	ok := t.Dominates(p, u)
	t.Flush()
	return ok
}
