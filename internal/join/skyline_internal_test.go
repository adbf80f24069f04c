package join

import (
	"fmt"
	"math/rand"
	"testing"

	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/npv"
	"nntstream/internal/qindex"
)

// TestSkylineDominatedEmptyQueryVector covers the len(u)==0 branch of
// Skyline.dominated: an isolated query vertex projects to the empty vector,
// which is dominated by any stream vertex — so the pair is a candidate iff
// the stream has at least one vertex.
func TestSkylineDominatedEmptyQueryVector(t *testing.T) {
	f := NewSkyline(DefaultDepth)
	q := buildGraph(t, map[graph.VertexID]graph.Label{0: 5}, nil)
	if err := f.AddQuery(0, q); err != nil {
		t.Fatal(err)
	}

	empty := graph.New()
	if err := f.AddStream(0, empty); err != nil {
		t.Fatal(err)
	}
	nonEmpty := buildGraph(t, map[graph.VertexID]graph.Label{0: 9}, nil)
	if err := f.AddStream(1, nonEmpty); err != nil {
		t.Fatal(err)
	}

	got := f.Candidates()
	want := []core.Pair{{Stream: 1, Query: 0}}
	if len(got) != 1 || got[0] != want[0] {
		t.Fatalf("Candidates = %v; want %v (empty stream cannot dominate, any vertex dominates the empty query vector)", got, want)
	}

	// Direct unit check of the probe.
	ss := f.streams[0].vecStream.(*skyStream)
	empty0 := npv.Pack(npv.Vector{})
	if ok, _ := dominated(ss, empty0, new(npv.Tally)); ok {
		t.Fatal("empty stream should not dominate the empty vector")
	}
	if ok, _ := dominated(f.streams[1].vecStream.(*skyStream), empty0, new(npv.Tally)); !ok {
		t.Fatal("non-empty stream should dominate the empty vector")
	}
}

// TestSkylineRetiredVertex covers vertex retirement at the candidate level:
// deleting the last edge of a vertex removes it from the graph and its
// vector from the per-dimension statistics, flipping verdicts that depended
// on it, and re-inserting the edge restores them.
func TestSkylineRetiredVertex(t *testing.T) {
	f := NewSkyline(DefaultDepth)
	// Query A-B (labels 0-1).
	q := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1}, [][3]int{{0, 1, 0}})
	if err := f.AddQuery(0, q); err != nil {
		t.Fatal(err)
	}
	// Stream: A-B plus an unrelated C-C edge that survives the deletion.
	g := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1, 2: 2, 3: 2},
		[][3]int{{0, 1, 0}, {2, 3, 0}})
	if err := f.AddStream(0, g); err != nil {
		t.Fatal(err)
	}
	if got := f.Candidates(); len(got) != 1 {
		t.Fatalf("Candidates before deletion = %v; want 1 pair", got)
	}

	// Deleting edge 0-1 retires both endpoints (degree drops to zero).
	if err := f.Apply(0, graph.ChangeSet{graph.DeleteOp(0, 1)}); err != nil {
		t.Fatal(err)
	}
	if got := f.Candidates(); len(got) != 0 {
		t.Fatalf("Candidates after retirement = %v; want none", got)
	}
	// The query vector's dimensions lost their only members, so the probe
	// refutes it without a scan.
	ss := f.streams[0].vecStream.(*skyStream)
	if ok, scanned := dominated(ss, f.queries[0][0], new(npv.Tally)); ok || scanned != 0 {
		t.Fatalf("dominated = %v after %d scans; want a scan-free refutation", ok, scanned)
	}

	// Re-inserting the edge restores the pair (no stale member state).
	if err := f.Apply(0, graph.ChangeSet{graph.InsertOp(0, 0, 1, 1, 0)}); err != nil {
		t.Fatal(err)
	}
	if got := f.Candidates(); len(got) != 1 {
		t.Fatalf("Candidates after re-insertion = %v; want 1 pair", got)
	}
}

// TestSkylineCandidatesOnMaxRetreat: when the vertex holding a dimension's
// max shrinks, the max may stay above every live count (it is only an upper
// bound), so the max refutation no longer fires — the member scan must then
// find no dominator and drop the pair, and regrowth must restore it.
func TestSkylineCandidatesOnMaxRetreat(t *testing.T) {
	f := NewSkyline(1)
	// Query: a star center with two leaves, count 2 in its one dimension
	// (all vertices label 7, edges label 0).
	q := buildGraph(t, map[graph.VertexID]graph.Label{0: 7, 1: 7, 2: 7},
		[][3]int{{0, 1, 0}, {0, 2, 0}})
	if err := f.AddQuery(0, q); err != nil {
		t.Fatal(err)
	}
	// Stream: the same star, plus an independent edge 3-4 contributing
	// count 1 on the same dimension.
	g := buildGraph(t, map[graph.VertexID]graph.Label{0: 7, 1: 7, 2: 7, 3: 7, 4: 7},
		[][3]int{{0, 1, 0}, {0, 2, 0}, {3, 4, 0}})
	if err := f.AddStream(0, g); err != nil {
		t.Fatal(err)
	}
	if got := f.Candidates(); len(got) != 1 {
		t.Fatalf("Candidates = %v; want the pair", got)
	}
	// Delete one star edge: the center's count drops to 1, below the query.
	if err := f.Apply(0, graph.ChangeSet{graph.DeleteOp(0, 2)}); err != nil {
		t.Fatal(err)
	}
	if got := f.Candidates(); len(got) != 0 {
		t.Fatalf("Candidates after retreat = %v; want none", got)
	}
	if err := f.Apply(0, graph.ChangeSet{graph.InsertOp(3, 7, 5, 7, 0)}); err != nil {
		t.Fatal(err)
	}
	if got := f.Candidates(); len(got) != 1 {
		t.Fatalf("Candidates after regrowth elsewhere = %v; want the pair", got)
	}
}

// TestSkylineDimStatsRandomized pins the invariants the probe relies on,
// after every timestamp of a randomized multi-stream workload: a
// dimension's members are exactly the vertices whose sealed vector is
// nonzero in it, each member record holds that sealed vector with
// consistent position back-pointers, and its max is at least every
// member's sealed count. The max refutation is sound only while the last
// holds.
func TestSkylineDimStatsRandomized(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		depth := 1 + r.Intn(3)
		f := NewSkyline(depth)
		graphs := make(map[core.StreamID]*graph.Graph)
		for sid := core.StreamID(0); sid < 3; sid++ {
			g := randomConnected(r, 8+r.Intn(4), 3, 2)
			graphs[sid] = g.Clone()
			if err := f.AddStream(sid, g); err != nil {
				t.Fatal(err)
			}
		}
		for step := -1; step < 40; step++ {
			if step >= 0 {
				if err := f.ApplyAll(randomBatch(r, graphs)); err != nil {
					t.Fatal(err)
				}
			}
			for sid, s := range f.streams {
				checkDimStats(t, s.vecStream.(*skyStream), fmt.Sprintf("seed=%d step=%d stream=%d", seed, step, sid))
			}
		}
	}
}

// checkDimStats compares ss's per-dimension statistics and member records
// with the store's sealed vectors.
func checkDimStats(t *testing.T, ss *skyStream, at string) {
	t.Helper()
	nonzero, records := 0, 0
	ss.store.PackedVectors(func(v graph.VertexID, p npv.PackedVector) bool {
		if p.Len() == 0 {
			return true
		}
		records++
		sv := ss.verts[v]
		if sv == nil || !sv.p.Equal(p) {
			t.Fatalf("%s: vertex %d's record does not hold its sealed vector %v", at, v, p)
		}
		if len(sv.pos) != p.Len() {
			t.Fatalf("%s: vertex %d has %d positions for %d dimensions", at, v, len(sv.pos), p.Len())
		}
		for i := 0; i < p.Len(); i++ {
			stat := ss.dims[p.Dim(i)]
			if stat == nil {
				t.Fatalf("%s: vertex %d is nonzero in %v, which has no statistics", at, v, p.Dim(i))
			}
			if k := sv.pos[i]; k < 0 || int(k) >= len(stat.members) || stat.members[k] != sv {
				t.Fatalf("%s: vertex %d's position %d in %v does not point back at it", at, v, k, p.Dim(i))
			}
			if p.Count(i) > stat.max {
				t.Fatalf("%s: vertex %d counts %d in %v, above its max %d", at, v, p.Count(i), p.Dim(i), stat.max)
			}
		}
		nonzero += p.Len()
		return true
	})
	members := 0
	for _, stat := range ss.dims {
		members += len(stat.members)
	}
	if members != nonzero || len(ss.verts) != records {
		t.Fatalf("%s: %d memberships for %d nonzero entries, %d records for %d vertices (stale members)",
			at, members, nonzero, len(ss.verts), records)
	}
}

// TestSkylineWorkDeterministic: Skyline's probe scans member lists in the
// order reconcile built them and candidate generation dedupes by query
// slot, so no count depends on map iteration or scheduling. The same
// registrations and batches, replayed at 1 and 2 workers, must scan the same
// stream vectors and run the same kernel tests every time.
func TestSkylineWorkDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	starts := make(map[core.StreamID]*graph.Graph)
	graphs := make(map[core.StreamID]*graph.Graph)
	for sid := core.StreamID(0); sid < 3; sid++ {
		starts[sid] = randomConnected(r, 12, 3, 2)
		graphs[sid] = starts[sid].Clone()
	}
	var queries []*graph.Graph
	for q := 0; q < 24; q++ {
		queries = append(queries, randomSub(r, starts[core.StreamID(q%3)]))
	}
	var batches []map[core.StreamID]graph.ChangeSet
	for step := 0; step < 30; step++ {
		batches = append(batches, randomBatch(r, graphs))
	}

	type work struct {
		scans                float64
		tests, sigRejections int64
	}
	run := func(workers int) work {
		f := NewSkyline(DefaultDepth)
		f.SetWorkers(workers)
		read := scrape(t, f)
		tests0, rejects0 := npv.KernelCounters()
		for q, g := range queries[:16] {
			if err := f.AddQuery(core.QueryID(q), g); err != nil {
				t.Fatal(err)
			}
		}
		for sid := core.StreamID(0); sid < 3; sid++ {
			if err := f.AddStream(sid, starts[sid].Clone()); err != nil {
				t.Fatal(err)
			}
		}
		for step, batch := range batches {
			if step%5 == 4 {
				// Churn: the query added next reuses the removed one's slot.
				if err := f.RemoveQuery(core.QueryID(step / 5)); err != nil {
					t.Fatal(err)
				}
				if err := f.AddQuery(core.QueryID(16+step/5), queries[16+step/5]); err != nil {
					t.Fatal(err)
				}
			}
			if err := f.ApplyAll(batch); err != nil {
				t.Fatal(err)
			}
		}
		tests1, rejects1 := npv.KernelCounters()
		return work{read("nntstream_filter_vector_scans_total"), tests1 - tests0, rejects1 - rejects0}
	}
	want := run(1)
	for _, workers := range []int{1, 2, 2} {
		if got := run(workers); got != want {
			t.Fatalf("workers=%d: work %+v; first sequential run %+v", workers, got, want)
		}
	}
}

// TestCandidateProbeAllocsIndependentOfQueryCount: once warmed, candidate
// generation into a reused Scratch and the Skyline probes of every
// candidate allocate the same at 400 and at 1600 registered queries — the
// dedupe array and the result buffer are sized once, not per call.
func TestCandidateProbeAllocsIndependentOfQueryCount(t *testing.T) {
	allocs := func(nq int) float64 {
		r := rand.New(rand.NewSource(5))
		g := randomConnected(r, 16, 3, 2)
		f := NewSkyline(DefaultDepth)
		for q := 0; q < nq; q++ {
			if err := f.AddQuery(core.QueryID(q), randomSub(r, g)); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.AddStream(0, g); err != nil {
			t.Fatal(err)
		}
		ss := f.streams[0].vecStream.(*skyStream)
		p0, _ := ss.store.Packed(0)
		p1, _ := ss.store.Packed(1)
		// Vertex 0 takes vertex 1's vector and a new vertex appears with
		// vertex 0's: both a crossed-range and a reachability scan.
		deltas := []npv.DirtyDelta{
			{Vertex: 0, Old: p0, New: p1, HadOld: true, HasNew: true},
			{Vertex: 99, New: p0, HasNew: true},
		}
		var sc qindex.Scratch
		var tally npv.Tally
		candidates := 0
		step := func() {
			qids := f.ix.AffectedQueriesInto(&sc, deltas)
			candidates = len(qids)
			for _, qid := range qids {
				ss.probe(f.queries[qid], &tally)
			}
			tally.Flush()
		}
		step()
		if candidates == 0 {
			t.Fatalf("%d queries: no candidates, the probe is not exercised", nq)
		}
		return testing.AllocsPerRun(20, step)
	}
	small, large := allocs(400), allocs(1600)
	if small != large {
		t.Fatalf("allocs per candidate step grew with the query count: %.1f at 400 queries, %.1f at 1600", small, large)
	}
	t.Logf("allocs per candidate step: %.1f at 400 and 1600 queries", small)
}
