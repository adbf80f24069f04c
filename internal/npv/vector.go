// Package npv implements the paper's node-projected vectors (Section IV-A):
// each node-neighbor tree is projected into a sparse numeric vector counting
// tree edges per dimension ⟨level, parentLabel, edgeLabel, childLabel⟩, and
// the branch-compatibility test of Lemma 4.1 is relaxed to the dominance
// test of Lemma 4.2, which the join strategies in internal/join evaluate.
//
// The paper's dimensions are triples ⟨l, lab1, lab2⟩ over vertex labels; the
// edge label is included here as a fourth component, which is identical on
// the paper's single-edge-label datasets and strictly increases pruning
// power otherwise, while preserving the no-false-negative guarantee
// (isomorphism preserves edge labels, so the path-injection argument behind
// Lemma 4.2 carries the edge label along).
package npv

import (
	"fmt"
	"slices"
	"strings"

	"nntstream/internal/graph"
)

// Dim is a projection dimension (Definition 4.1): a distinct labeled tree
// edge at a given depth, packed as level│fromLabel│edgeLabel│toLabel into
// one word so vectors hit the runtime's fast integer-keyed map path (these
// maps are the hottest structures in the whole system).
type Dim uint64

// NewDim packs a dimension.
func NewDim(level byte, from, edge, to graph.Label) Dim {
	return Dim(uint64(level)<<48 | uint64(from)<<32 | uint64(edge)<<16 | uint64(to))
}

// Level, From, Edge, and To unpack the components.
func (d Dim) Level() byte       { return byte(d >> 48) }
func (d Dim) From() graph.Label { return graph.Label(d >> 32) }
func (d Dim) Edge() graph.Label { return graph.Label(d >> 16) }
func (d Dim) To() graph.Label   { return graph.Label(d) }

func (d Dim) String() string {
	return fmt.Sprintf("(%d,%d-%d->%d)", d.Level(), d.From(), d.Edge(), d.To())
}

// Vector is a sparse node-projected vector: occurrence counts per dimension.
// Entries are always positive; a missing key means zero.
type Vector map[Dim]int32

// Get returns the count for d (zero when absent).
func (v Vector) Get(d Dim) int32 { return v[d] }

// Add adjusts dimension d by delta, deleting the entry when it reaches zero.
// It panics if a count would go negative, which indicates a maintenance bug.
func (v Vector) Add(d Dim, delta int32) {
	c := v[d] + delta
	switch {
	case c < 0:
		panic(fmt.Sprintf("npv: dimension %v count went negative", d))
	case c == 0:
		delete(v, d)
	default:
		v[d] = c
	}
}

// Dominates reports whether v dominates u in the sense of Lemma 4.2: on
// every dimension of u's support, v's count is at least u's. (Dimensions
// where u is zero impose no constraint.)
func (v Vector) Dominates(u Vector) bool {
	if len(v) < len(u) {
		// v must be nonzero on every dimension u is nonzero on.
		return false
	}
	for d, uc := range u {
		if v[d] < uc {
			return false
		}
	}
	return true
}

// Equal reports entry-wise equality.
func (v Vector) Equal(u Vector) bool {
	if len(v) != len(u) {
		return false
	}
	for d, c := range u {
		if v[d] != c {
			return false
		}
	}
	return true
}

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	for d, n := range v {
		c[d] = n
	}
	return c
}

// L1 returns the sum of all counts, used by the skyline join's ordering
// heuristic (larger vectors are less likely to be dominated, so they are
// probed first).
func (v Vector) L1() int64 {
	var s int64
	for _, c := range v {
		s += int64(c)
	}
	return s
}

// Support returns v's nonzero dimensions in a deterministic order (the
// packed encoding orders by level, then parent, edge, and child labels).
func (v Vector) Support() []Dim {
	out := make([]Dim, 0, len(v))
	for d := range v {
		out = append(out, d)
	}
	slices.Sort(out)
	return out
}

// String renders the vector deterministically for tests and debugging.
func (v Vector) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, d := range v.Support() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%v:%d", d, v[d])
	}
	b.WriteByte('}')
	return b.String()
}
