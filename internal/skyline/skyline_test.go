package skyline

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nntstream/internal/graph"
	"nntstream/internal/npv"
)

// dim builds the i-th test dimension.
func dim(i int) npv.Dim {
	return npv.NewDim(1, 0, 0, graph.Label(i))
}

// vec builds a vector from dense coordinates: value at index i goes to
// dimension dim(i); zeros are skipped.
func vec(coords ...int32) npv.Vector {
	v := make(npv.Vector)
	for i, c := range coords {
		if c != 0 {
			v.Add(dim(i), c)
		}
	}
	return v
}

// maximal runs MaximalPacked over the packed vecs and unpacks the result,
// so the assertions below can use the map kernel as their reference.
func maximal(vecs ...npv.Vector) []npv.Vector {
	var out []npv.Vector
	for _, p := range MaximalPacked(npv.PackAll(vecs)) {
		out = append(out, p.Unpack())
	}
	return out
}

func containsVec(set []npv.Vector, v npv.Vector) bool {
	for _, u := range set {
		if u.Equal(v) {
			return true
		}
	}
	return false
}

func TestMaximalBasic(t *testing.T) {
	a := vec(1, 1)
	b := vec(0, 3)
	c := vec(2, 3) // dominates a and b
	d := vec(3, 1) // dominates a
	max := maximal(a, b, c, d)
	if len(max) != 2 || !containsVec(max, c) || !containsVec(max, d) {
		t.Fatalf("maximal = %v; want {c,d}", max)
	}
}

func TestMaximalCollapsesDuplicates(t *testing.T) {
	a := vec(2, 2)
	b := vec(2, 2)
	max := maximal(a, b)
	if len(max) != 1 {
		t.Fatalf("maximal with duplicates = %v; want one representative", max)
	}
}

func TestMaximalIncomparable(t *testing.T) {
	a := vec(3, 0)
	b := vec(0, 3)
	max := maximal(a, b)
	if len(max) != 2 {
		t.Fatalf("incomparable vectors should both be maximal: %v", max)
	}
}

func TestMaximalEmpty(t *testing.T) {
	if got := MaximalPacked(nil); got != nil {
		t.Fatalf("MaximalPacked(nil) = %v", got)
	}
	// The empty vector is dominated by everything, so with company it is
	// not maximal.
	max := maximal(vec(), vec(1))
	if len(max) != 1 || !containsVec(max, vec(1)) {
		t.Fatalf("maximal = %v", max)
	}
}

// TestQuickMaximalCoverage: every input vector is dominated by some maximal
// vector (the property the skyline join's query-side optimization rests on).
func TestQuickMaximalCoverage(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		var vecs []npv.Vector
		for i := 0; i < n; i++ {
			vecs = append(vecs, vec(int32(r.Intn(4)), int32(r.Intn(4)), int32(r.Intn(4))))
		}
		max := maximal(vecs...)
		for _, v := range vecs {
			covered := false
			for _, m := range max {
				if m.Dominates(v) {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		// And no maximal vector is dominated by a distinct input vector.
		for _, m := range max {
			for _, v := range vecs {
				if !v.Equal(m) && v.Dominates(m) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
