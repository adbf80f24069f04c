package factor

import (
	"math/rand"
	"reflect"
	"testing"

	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/npv"
)

// randomVector draws a small vector with dims from a shared pool so that
// overlap actually occurs.
func randomVector(r *rand.Rand, maxDims int) npv.Vector {
	v := make(npv.Vector)
	n := 1 + r.Intn(maxDims)
	for i := 0; i < n; i++ {
		d := npv.Dim(r.Intn(12))
		v[d] = int32(1 + r.Intn(4))
	}
	return v
}

// perturb returns a copy of base with one entry changed, added, or removed —
// the template-with-variations shape factoring targets.
func perturb(r *rand.Rand, base npv.Vector) npv.Vector {
	v := base.Clone()
	switch r.Intn(3) {
	case 0: // change one entry
		for d := range v {
			v[d] += int32(1 + r.Intn(2))
			break
		}
	case 1: // add an entry
		v[npv.Dim(100+r.Intn(8))] = int32(1 + r.Intn(3))
	default: // drop one entry
		for d := range v {
			if len(v) > 1 {
				delete(v, d)
			}
			break
		}
	}
	return v
}

// buildTemplateTable registers nTemplates × perTemplate perturbed vectors
// and seals. Returns the table and the registered keys in registration
// order.
func buildTemplateTable(r *rand.Rand, nTemplates, perTemplate int) (*Table, []Key) {
	t := NewTable()
	t.SetMinSupport(2)
	t.SetMinDims(2)
	var keys []Key
	q := core.QueryID(0)
	for i := 0; i < nTemplates; i++ {
		base := randomVector(r, 6)
		for j := 0; j < perTemplate; j++ {
			k := Key{Query: q, Vertex: graph.VertexID(j)}
			vec := base
			if j > 0 {
				vec = perturb(r, base)
			}
			t.Add(k, npv.Pack(vec))
			keys = append(keys, k)
		}
		q++
	}
	t.Seal()
	return t, keys
}

// checkDecompExact is the soundness contract: for every registered vector,
// against any probe p, the factored test (factor dominated AND residual
// dominated) must agree with the full packed dominance — both directions.
func checkDecompExact(t *testing.T, tbl *Table, keys []Key, r *rand.Rand) {
	t.Helper()
	for _, k := range keys {
		dec, ok := tbl.Decomp(k)
		if !ok {
			t.Fatalf("key %v missing decomposition after seal", k)
		}
		for trial := 0; trial < 50; trial++ {
			// Half the probes are biased toward dominating: superset of the
			// full vector with inflated counts. Unbiased random probes almost
			// never dominate, which would leave the accept path untested.
			var p npv.PackedVector
			if trial%2 == 0 {
				sup := dec.Full.Unpack()
				for d := range sup {
					sup[d] += int32(r.Intn(2))
				}
				if r.Intn(2) == 0 && len(sup) > 0 {
					for d := range sup {
						sup[d]-- // dent one dimension: may break dominance
						break
					}
				}
				p = npv.Pack(sup)
			} else {
				p = npv.Pack(randomVector(r, 8))
			}
			full := p.Dominates(dec.Full)
			factored := p.Dominates(dec.Residual)
			if dec.Factor != None {
				factored = factored && p.Dominates(tbl.Factor(dec.Factor))
			}
			if full != factored {
				t.Fatalf("key %v: factored verdict %v != full verdict %v\nfull=%v\nfactor=%v\nresidual=%v\nprobe=%v",
					k, factored, full, dec.Full, dec.Factor, dec.Residual, p)
			}
		}
	}
}

// TestDecompositionExactness quickchecks factor short-circuit ≡ full packed
// dominance over randomized template workloads, including post-seal churn.
func TestDecompositionExactness(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(900 + seed))
		tbl, keys := buildTemplateTable(r, 3, 5)
		checkDecompExact(t, tbl, keys, r)

		// Post-seal churn: live additions match against existing factors.
		live := Key{Query: 100, Vertex: 0}
		tbl.Add(live, npv.Pack(randomVector(r, 6)))
		keys = append(keys, live)
		checkDecompExact(t, tbl, keys, r)

		// Remove a query, re-check everything that remains.
		tbl.RemoveQuery(keys[0].Query)
		var kept []Key
		for _, k := range keys {
			if k.Query != keys[0].Query {
				kept = append(kept, k)
			}
		}
		checkDecompExact(t, tbl, kept, r)
	}
}

// TestDiscoveryFindsTemplateSharing pins that identical vectors registered
// under distinct queries actually coalesce into a factor with an empty
// residual — the payoff case the table exists for.
func TestDiscoveryFindsTemplateSharing(t *testing.T) {
	tbl := NewTable()
	tbl.SetMinSupport(2)
	tbl.SetMinDims(2)
	shared := npv.Pack(npv.Vector{1: 2, 2: 3, 3: 1})
	for q := core.QueryID(0); q < 4; q++ {
		tbl.Add(Key{Query: q, Vertex: 0}, shared)
	}
	loner := npv.Pack(npv.Vector{50: 7})
	tbl.Add(Key{Query: 9, Vertex: 0}, loner)
	tbl.Seal()

	if tbl.FactorCount() != 1 {
		t.Fatalf("FactorCount = %d; want 1", tbl.FactorCount())
	}
	if !tbl.Factor(0).Equal(shared) {
		t.Fatalf("factor = %v; want the shared vector %v", tbl.Factor(0), shared)
	}
	if got := tbl.Members(0); got != 4 {
		t.Fatalf("Members(0) = %d; want 4", got)
	}
	for q := core.QueryID(0); q < 4; q++ {
		dec, _ := tbl.Decomp(Key{Query: q, Vertex: 0})
		if dec.Factor != 0 || dec.Residual.Len() != 0 {
			t.Fatalf("query %d: decomp = {factor %d, residual %v}; want fully discharged", q, dec.Factor, dec.Residual)
		}
	}
	dec, _ := tbl.Decomp(Key{Query: 9, Vertex: 0})
	if dec.Factor != None || !dec.Residual.Equal(loner) {
		t.Fatalf("loner decomp = %+v; want unfactored", dec)
	}
}

// TestDiscoveryDeterministic pins that two tables fed the same vectors in
// different map-insertion orders discover identical factor sets.
func TestDiscoveryDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	vecs := make(map[Key]npv.PackedVector)
	base := randomVector(r, 5)
	for q := core.QueryID(0); q < 6; q++ {
		vecs[Key{Query: q, Vertex: 0}] = npv.Pack(perturb(r, base))
		vecs[Key{Query: q, Vertex: 1}] = npv.Pack(randomVector(r, 5))
	}
	build := func(order []Key) *Table {
		tbl := NewTable()
		tbl.SetMinSupport(2)
		tbl.SetMinDims(2)
		for _, k := range order {
			tbl.Add(k, vecs[k])
		}
		tbl.Seal()
		return tbl
	}
	var fwd, rev []Key
	for k := range vecs {
		fwd = append(fwd, k)
	}
	// Two arbitrary but different insertion orders.
	rev = append(rev, fwd...)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	a, b := build(fwd), build(rev)
	if a.FactorCount() != b.FactorCount() {
		t.Fatalf("factor counts differ: %d vs %d", a.FactorCount(), b.FactorCount())
	}
	for i := 0; i < a.FactorCount(); i++ {
		if !a.Factor(ID(i)).Equal(b.Factor(ID(i))) {
			t.Fatalf("factor %d differs: %v vs %v", i, a.Factor(ID(i)), b.Factor(ID(i)))
		}
	}
	for k := range vecs {
		da, _ := a.Decomp(k)
		db, _ := b.Decomp(k)
		if da.Factor != db.Factor || !da.Residual.Equal(db.Residual) {
			t.Fatalf("decomp of %v differs: %+v vs %+v", k, da, db)
		}
	}
}

// TestChurnLifecycle covers membership bookkeeping under post-seal
// add/remove churn against a pinned factor set — the registration-audit
// shape of the PR 6 tests.
func TestChurnLifecycle(t *testing.T) {
	tbl := NewTable()
	tbl.SetMinSupport(2)
	tbl.SetMinDims(2)
	shared := npv.Pack(npv.Vector{1: 2, 2: 3})
	for q := core.QueryID(0); q < 4; q++ {
		tbl.Add(Key{Query: q, Vertex: 0}, shared)
	}
	tbl.Seal()
	if tbl.FactorCount() != 1 || tbl.Members(0) != 4 {
		t.Fatalf("after seal: factors=%d members=%d", tbl.FactorCount(), tbl.Members(0))
	}

	// A matching live addition joins the existing factor.
	tbl.Add(Key{Query: 10, Vertex: 0}, shared)
	if tbl.Members(0) != 5 {
		t.Fatalf("live add: members = %d; want 5", tbl.Members(0))
	}
	dec, _ := tbl.Decomp(Key{Query: 10, Vertex: 0})
	if dec.Factor != 0 {
		t.Fatalf("live add decomp factor = %d; want 0", dec.Factor)
	}
	// A live addition no factor applies to stays unfactored.
	tbl.Add(Key{Query: 11, Vertex: 0}, npv.Pack(npv.Vector{7: 1, 8: 1}))
	if dec, _ := tbl.Decomp(Key{Query: 11, Vertex: 0}); dec.Factor != None {
		t.Fatalf("unrelated live add decomp factor = %d; want None", dec.Factor)
	}

	// Removals decay membership; the factor set itself stays pinned.
	for q := core.QueryID(0); q < 4; q++ {
		if !tbl.RemoveQuery(q) {
			t.Fatalf("RemoveQuery(%d) found nothing", q)
		}
	}
	if tbl.RemoveQuery(3) {
		t.Fatal("second RemoveQuery(3) reported a registered query")
	}
	if tbl.Members(0) != 1 || tbl.VectorCount() != 2 || tbl.FactorCount() != 1 {
		t.Fatalf("after removals: members=%d vectors=%d factors=%d",
			tbl.Members(0), tbl.VectorCount(), tbl.FactorCount())
	}

	// Full teardown.
	tbl.RemoveQuery(10)
	tbl.RemoveQuery(11)
	if tbl.VectorCount() != 0 || tbl.Members(0) != 0 {
		t.Fatalf("after removing everything: vectors=%d members=%d", tbl.VectorCount(), tbl.Members(0))
	}
}

// TestMemoAgainstSpace drives a Memo from a live npv.Space the way DSC
// does — Space mutated through its nnt.Observer interface, SealDirty
// feeding Update — and checks every memoized verdict against direct kernel
// evaluation, across vector growth, change, and retirement.
func TestMemoAgainstSpace(t *testing.T) {
	// Two distinct dimensions, built the way the forest reports tree edges.
	d1 := npv.NewDim(1, 0, 0, 1)
	d2 := npv.NewDim(1, 0, 0, 2)
	tbl := NewTable()
	tbl.SetMinSupport(2)
	tbl.SetMinDims(1)
	fv := npv.Pack(npv.Vector{d1: 2, d2: 1})
	tbl.Add(Key{Query: 0, Vertex: 0}, fv)
	tbl.Add(Key{Query: 1, Vertex: 0}, fv)
	tbl.Seal()
	if tbl.FactorCount() != 1 {
		t.Fatalf("FactorCount = %d; want 1", tbl.FactorCount())
	}

	space := npv.NewSpace()
	space.EnablePacking()
	memo := NewMemo(tbl)

	step := func(mut func()) {
		t.Helper()
		mut()
		for _, dl := range space.SealDirty() {
			memo.Update(dl.Vertex, dl.New, dl.HasNew, func(ID, bool) {})
		}
		// Every live vertex's memo bit must equal the direct verdict.
		space.PackedVectors(func(v graph.VertexID, p npv.PackedVector) bool {
			want := p.Dominates(fv)
			if got := memo.Has(v, 0); got != want {
				t.Fatalf("vertex %d: memo=%v direct=%v (vector %v)", v, got, want, p)
			}
			return true
		})
	}

	step(func() {
		space.TreeAdded(7, 0)
		space.TreeEdgeAdded(7, 1, 0, 0, 1) // 7: d1=1, below the factor's 2
		space.TreeAdded(8, 0)
		space.TreeEdgeAdded(8, 1, 0, 0, 1)
		space.TreeEdgeAdded(8, 1, 0, 0, 1) // 8: d1=2, still missing d2
	})
	if memo.Has(7, 0) || memo.Has(8, 0) {
		t.Fatal("partial vectors must not dominate the factor")
	}
	step(func() {
		space.TreeEdgeAdded(8, 1, 0, 0, 2) // 8: d2=1 → dominates {d1:2, d2:1}
	})
	if !memo.Has(8, 0) {
		t.Fatal("vertex 8 dominates the factor; memo bit missing")
	}
	step(func() {
		space.TreeEdgeRemoved(8, 1, 0, 0, 1) // 8: d1 drops to 1 → below
	})
	if memo.Has(8, 0) {
		t.Fatal("vertex 8 no longer dominates; memo bit stale")
	}
	// Retirement: the whole tree goes away → memo entry deleted.
	step(func() {
		space.TreeRemoved(7)
	})
	if memo.Has(7, 0) {
		t.Fatal("retired vertex kept a memo bit")
	}
}

// TestMemoFlipCallback pins the onFlip contract DSC's counters depend on:
// exactly one callback per changed verdict, with the new value.
func TestMemoFlipCallback(t *testing.T) {
	tbl := NewTable()
	tbl.SetMinSupport(2)
	tbl.SetMinDims(1)
	fv := npv.Pack(npv.Vector{1: 2})
	tbl.Add(Key{Query: 0, Vertex: 0}, fv)
	tbl.Add(Key{Query: 1, Vertex: 0}, fv)
	tbl.Seal()
	memo := NewMemo(tbl)

	var got []bool
	onFlip := func(f ID, now bool) {
		if f != 0 {
			t.Fatalf("flip of unexpected factor %d", f)
		}
		got = append(got, now)
	}
	up := npv.Pack(npv.Vector{1: 3})
	down := npv.Pack(npv.Vector{1: 1})

	memo.Update(5, up, true, onFlip)
	memo.Update(5, up, true, onFlip)   // no change → no flip
	memo.Update(5, down, true, onFlip) // drops below
	memo.Update(5, up, true, onFlip)
	memo.Update(5, up, false, onFlip) // retired while set
	if want := []bool{true, false, true, false}; !reflect.DeepEqual(got, want) {
		t.Fatalf("flip sequence = %v; want %v", got, want)
	}
}

// TestStatsCounters smoke-checks the seal-time evaluation counter moves and
// the retired short-circuit counters stay at zero.
func TestStatsCounters(t *testing.T) {
	e0, _, _ := Counters()
	tbl := NewTable()
	tbl.SetMinSupport(2)
	tbl.SetMinDims(1)
	fv := npv.Pack(npv.Vector{1: 5})
	tbl.Add(Key{Query: 0, Vertex: 0}, fv)
	tbl.Add(Key{Query: 1, Vertex: 0}, fv)
	tbl.Seal()
	memo := NewMemo(tbl)
	memo.Update(1, npv.Pack(npv.Vector{1: 1}), true, func(ID, bool) {})
	if memo.Has(1, 0) {
		t.Fatal("vector below the factor must not dominate it")
	}
	if e1, _, _ := Counters(); e1 <= e0 {
		t.Fatalf("factor evals did not advance: %d→%d", e0, e1)
	}
}
