// Package skyline provides the monochromatic skyline of node-projected
// vectors used by the skyline-with-early-stop join (Section IV-B.2).
// Dominance follows Lemma 4.2: v dominates u when v's count is ≥ u's on
// every dimension of u's support, so "maximal" vectors are the hardest to
// dominate.
package skyline

import (
	"slices"

	"nntstream/internal/npv"
)

// MaximalPacked returns the monochromatic skyline of the packed vector set
// under the paper's dominance order: the distinct vectors not dominated by
// any other distinct vector in the set, first occurrences in input order.
// Duplicate vectors are collapsed to one representative — for the join's
// purposes equal vectors are interchangeable. The quadratic comparison runs
// on the packed dominance kernel (sorted-merge with signature
// pre-filtering) instead of per-pair map iteration.
func MaximalPacked(vecs []npv.PackedVector) []npv.PackedVector {
	var uniq []npv.PackedVector
	for _, p := range vecs {
		if !slices.ContainsFunc(uniq, p.Equal) {
			uniq = append(uniq, p)
		}
	}
	var out []npv.PackedVector
	for i, p := range uniq {
		dominated := false
		for j, q := range uniq {
			if i != j && q.Dominates(p) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	return out
}
