package npv

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"nntstream/internal/graph"
	"nntstream/internal/nnt"
)

// randVector draws a sparse vector with 0..maxDims dimensions from a small
// dim universe (so random pairs actually share support) and counts 1..8.
func randVector(r *rand.Rand, maxDims int) Vector {
	v := make(Vector)
	n := r.Intn(maxDims + 1)
	for i := 0; i < n; i++ {
		d := NewDim(byte(r.Intn(4)), graph.Label(r.Intn(3)), graph.Label(r.Intn(2)), graph.Label(r.Intn(3)))
		v[d] = int32(1 + r.Intn(8))
	}
	return v
}

func TestPackedEmptyAndSingleDim(t *testing.T) {
	empty := Pack(Vector{})
	if empty.Len() != 0 || empty.Sig() != 0 || empty.L1() != 0 {
		t.Fatalf("packed empty vector: len=%d sig=%x l1=%d", empty.Len(), empty.Sig(), empty.L1())
	}
	d := NewDim(1, 0, 0, 1)
	one := Pack(Vector{d: 3})
	if one.Len() != 1 || one.Dim(0) != d || one.Count(0) != 3 || one.Get(d) != 3 {
		t.Fatalf("packed single-dim vector broken: %v", one)
	}
	if one.Get(NewDim(2, 0, 0, 1)) != 0 {
		t.Fatal("Get of absent dimension must be 0")
	}
	// Lemma 4.2 edge cases, matching Vector.Dominates exactly:
	if !one.Dominates(empty) {
		t.Fatal("everything dominates the empty vector")
	}
	if empty.Dominates(one) {
		t.Fatal("the empty vector dominates nothing nonzero")
	}
	if !empty.Dominates(empty) {
		t.Fatal("the empty vector dominates itself")
	}
	if !one.Dominates(one) {
		t.Fatal("dominance is reflexive")
	}
	if !Pack(Vector{d: 4}).Dominates(one) || one.Dominates(Pack(Vector{d: 4})) {
		t.Fatal("single-dimension count ordering broken")
	}
}

func TestPackedSortedAndRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		v := randVector(r, 12)
		p := Pack(v)
		for i := 1; i < p.Len(); i++ {
			if p.Dim(i-1) >= p.Dim(i) {
				t.Fatalf("dims not strictly ascending: %v", p)
			}
		}
		if !p.Unpack().Equal(v) {
			t.Fatalf("pack→unpack roundtrip lost data: %v vs %v", p.Unpack(), v)
		}
		if !Pack(p.Unpack()).Equal(p) {
			t.Fatal("unpack→pack not stable")
		}
		if p.L1() != v.L1() {
			t.Fatalf("L1 mismatch: %d vs %d", p.L1(), v.L1())
		}
		for d, c := range v {
			if p.Get(d) != c {
				t.Fatalf("Get(%v) = %d; want %d", d, p.Get(d), c)
			}
		}
	}
}

// TestQuickPackedDominatesEquivalence is the representation-change contract:
// Packed.Dominates answers exactly as Vector.Dominates on randomized vector
// pairs, including empty and single-dimension vectors.
func TestQuickPackedDominatesEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for iter := 0; iter < 50; iter++ {
			u := randVector(r, 6)
			v := randVector(r, 6)
			// Bias toward related pairs: sometimes grow v from u so true
			// dominance (not just rejection) is exercised.
			if r.Intn(2) == 0 {
				v = u.Clone()
				for d := range v {
					if r.Intn(2) == 0 {
						v.Add(d, int32(r.Intn(3)))
					}
				}
			}
			pu, pv := Pack(u), Pack(v)
			if pv.Dominates(pu) != v.Dominates(u) || pu.Dominates(pv) != u.Dominates(v) {
				return false
			}
			if pu.Equal(pv) != u.Equal(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSignatureSoundness pins the signature filter's one-sided error: the
// subset reject must never fire when dominance holds (sig(u) &^ sig(v) must
// be zero whenever v dominates u — collisions may only cause false accepts).
func TestSignatureSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for iter := 0; iter < 500; iter++ {
		u := randVector(r, 8)
		v := u.Clone()
		// Grow v into a guaranteed dominator.
		for d := range v {
			v.Add(d, int32(r.Intn(3)))
		}
		for i := 0; i < r.Intn(4); i++ {
			extra := randVector(r, 2)
			for d, c := range extra {
				v.Add(d, c)
			}
		}
		pu, pv := Pack(u), Pack(v)
		if !v.Dominates(u) {
			t.Fatal("construction should yield a dominator")
		}
		if pu.Sig()&^pv.Sig() != 0 {
			t.Fatalf("signature reject would fire on a dominating pair: u=%v v=%v", u, v)
		}
		if !pv.Dominates(pu) {
			t.Fatalf("packed kernel rejects a dominating pair: u=%v v=%v", u, v)
		}
	}
}

func TestKernelCountersMove(t *testing.T) {
	d1, d2 := NewDim(1, 0, 0, 1), NewDim(1, 1, 0, 1)
	// Find two dims with distinct signature bits so the reject is certain.
	if sigBit(d1) == sigBit(d2) {
		d2 = NewDim(2, 0, 1, 2)
	}
	if sigBit(d1) == sigBit(d2) {
		t.Skip("could not find non-colliding dims")
	}
	t0, s0 := KernelCounters()
	u, v := Pack(Vector{d1: 1, d2: 1}), Pack(Vector{d1: 5, d2: 5})
	if !v.Dominates(u) {
		t.Fatal("v should dominate u")
	}
	if Pack(Vector{d1: 5, d2: 5}).Dominates(Pack(Vector{d1: 1, d2: 1, NewDim(3, 0, 0, 0): 1})) {
		// Three dims vs two: size reject, no signature involvement needed.
		t.Fatal("size reject failed")
	}
	if Pack(Vector{d2: 9, NewDim(3, 1, 1, 1): 9}).Dominates(u) && sigBit(NewDim(3, 1, 1, 1)) != sigBit(d1) {
		t.Fatal("disjoint-support dominance accepted")
	}
	t1, s1 := KernelCounters()
	if t1-t0 < 3 {
		t.Fatalf("dominance test counter moved by %d; want >= 3", t1-t0)
	}
	if s1 < s0 {
		t.Fatalf("signature reject counter went backwards: %d -> %d", s0, s1)
	}
}

// TestSpacePackedCacheTracksDirty drives a space through random maintenance
// and checks, at every seal, that the packed cache matches a fresh Pack of
// the live maps.
func TestSpacePackedCacheTracksDirty(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g := graph.New()
	n := 8
	for i := 0; i < n; i++ {
		_ = g.AddVertex(graph.VertexID(i), graph.Label(r.Intn(3)))
	}
	for i := 1; i < n; i++ {
		_ = g.AddEdge(graph.VertexID(i), graph.VertexID(r.Intn(i)), graph.Label(r.Intn(2)))
	}
	s := NewSpace()
	s.EnablePacking()
	if s.packed == nil {
		t.Fatal("packing not enabled")
	}
	f := nnt.NewForest(g, 3, s)
	s.TakeDirty() // first seal
	assertPackedMatchesLive(t, s)
	for step := 0; step < 30; step++ {
		u := graph.VertexID(r.Intn(n))
		v := graph.VertexID(r.Intn(n))
		if u == v {
			continue
		}
		var op graph.ChangeOp
		if f.Graph().HasEdge(u, v) {
			op = graph.DeleteOp(u, v)
		} else {
			ul, ok := f.Graph().VertexLabel(u)
			if !ok {
				ul = graph.Label(r.Intn(3))
			}
			vl, ok := f.Graph().VertexLabel(v)
			if !ok {
				vl = graph.Label(r.Intn(3))
			}
			op = graph.InsertOp(u, ul, v, vl, graph.Label(r.Intn(2)))
		}
		if err := f.Apply(op); err != nil {
			t.Fatal(err)
		}
		// Every op moves its endpoints' level 1, so each seal reports
		// vertices, and a second seal at the same boundary finds nothing
		// left.
		var sealed int
		if step%2 == 0 {
			sealed = len(s.TakeDirty())
		} else {
			sealed = len(s.SealDirty())
		}
		if sealed == 0 {
			t.Fatalf("step %d: %v sealed no vertex", step, op)
		}
		if again := s.SealDirty(); again != nil {
			t.Fatalf("step %d: second seal at one boundary returned %v", step, again)
		}
		assertPackedMatchesLive(t, s)
	}
}

func assertPackedMatchesLive(t *testing.T, s *Space) {
	t.Helper()
	if len(s.packed) != s.Len() {
		t.Fatalf("cache holds %d vectors; want %d", len(s.packed), s.Len())
	}
	for v, vec := range s.vectors {
		if p, ok := s.packed[v]; !ok || !p.Equal(Pack(vec)) {
			t.Fatalf("cache of %d = %v, %v; live vector packs to %v", v, p, ok, Pack(vec))
		}
	}
}

// decodeVectorPair builds two vectors from fuzz bytes: a leading split byte,
// then 9-byte (dim uint64, count byte) entries routed to u or v.
func decodeVectorPair(data []byte) (u, v Vector) {
	u, v = make(Vector), make(Vector)
	if len(data) == 0 {
		return u, v
	}
	split, data := data[0], data[1:]
	for i := 0; i+9 <= len(data); i += 9 {
		d := Dim(binary.LittleEndian.Uint64(data[i : i+8]))
		c := int32(data[i+8]%16) + 1
		if byte(i/9)%4 < split%4 {
			u[d] = c
		} else {
			v[d] = c
		}
	}
	return u, v
}

// FuzzPackedDominates cross-checks the packed kernel against the map kernel
// on arbitrary byte-derived vectors, plus the roundtrip and signature
// soundness invariants.
func FuzzPackedDominates(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 3})
	f.Add([]byte{2, 1, 0, 0, 0, 0, 0, 0, 0, 3, 1, 0, 0, 0, 0, 0, 0, 0, 5})
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 8; i++ {
		b := make([]byte, 1+9*(1+r.Intn(6)))
		r.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		u, v := decodeVectorPair(data)
		pu, pv := Pack(u), Pack(v)
		if got, want := pv.Dominates(pu), v.Dominates(u); got != want {
			t.Fatalf("packed %v dominates %v = %v; map kernel says %v", v, u, got, want)
		}
		if got, want := pu.Dominates(pv), u.Dominates(v); got != want {
			t.Fatalf("packed %v dominates %v = %v; map kernel says %v", u, v, got, want)
		}
		if !pu.Unpack().Equal(u) || !pv.Unpack().Equal(v) {
			t.Fatal("pack→unpack roundtrip lost data")
		}
		if v.Dominates(u) && pu.Sig()&^pv.Sig() != 0 {
			t.Fatal("signature reject fired on a dominating pair")
		}
	})
}

var packSink PackedVector

// BenchmarkPack freezes every vector of a dense depth-3 projection — the
// Support sort each seal and each query registration pays per vector.
func BenchmarkPack(b *testing.B) {
	vecs := VectorsByVertex(ProjectGraph(randomStart(rand.New(rand.NewSource(12)), 24), 3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range vecs {
			packSink = Pack(v)
		}
	}
}

// BenchmarkSpaceTakeDirty measures the per-timestamp dirty-set drain. The
// clear()-reuse keeps it at one allocation per call (the returned slice)
// instead of also churning a replacement map.
func BenchmarkSpaceTakeDirty(b *testing.B) {
	s := NewSpace()
	for i := 0; i < 64; i++ {
		s.vectors[graph.VertexID(i)] = Vector{}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := 0; v < 64; v++ {
			s.dirty[graph.VertexID(v)] = struct{}{}
		}
		if got := s.TakeDirty(); len(got) != 64 {
			b.Fatalf("TakeDirty = %d vertices; want 64", len(got))
		}
	}
}
