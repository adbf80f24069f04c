package join

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/npv"
	"nntstream/internal/qindex"
)

// TestSkylineDominatedEmptyQueryVector covers the len(u)==0 branch of
// Skyline's dominator probe: an isolated query vertex projects to the empty vector,
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
	if _, ok, _ := dominator(ss, empty0, new(npv.Tally)); ok {
		t.Fatal("empty stream should not dominate the empty vector")
	}
	if _, ok, _ := dominator(f.streams[1].vecStream.(*skyStream), empty0, new(npv.Tally)); !ok {
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
	if _, ok, scanned := dominator(ss, f.queries[0].vecs[0], new(npv.Tally)); ok || scanned != 0 {
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
// dimension's bitset has a bit set exactly for the slots whose sealed
// vector is nonzero in it, each slot holds its vertex's sealed vector, and
// its max is at least every member's sealed count. The max refutation is
// sound only while the last holds.
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

// checkDimStats compares ss's per-dimension statistics and its vectors by
// slot with the store: each bit is set exactly when its slot's sealed
// vector is nonzero in the dimension, n is the bitset's popcount, max is at
// least every member's count, each live vertex's slot holds its sealed
// vector, no two live vertices share a slot, and every other slot is empty.
func checkDimStats(t *testing.T, ss *skyStream, at string) {
	t.Helper()
	owner := make(map[int32]graph.VertexID)
	ss.store.PackedVectors(func(v graph.VertexID, p npv.PackedVector) bool {
		slot, ok := ss.store.Slot(v)
		if !ok {
			t.Fatalf("%s: vertex %d has a sealed vector and no slot", at, v)
		}
		if u, dup := owner[slot]; dup {
			t.Fatalf("%s: vertices %d and %d share slot %d", at, u, v, slot)
		}
		owner[slot] = v
		if int(slot) >= len(ss.vecs) || !ss.vecs[slot].Equal(p) {
			t.Fatalf("%s: vertex %d's slot %d does not hold its sealed vector %v", at, v, slot, p)
		}
		for i := 0; i < p.Len(); i++ {
			stat := ss.dims[p.Dim(i)]
			if stat == nil {
				t.Fatalf("%s: vertex %d is nonzero in %v, which has no statistics", at, v, p.Dim(i))
			}
			if w := int(slot >> 6); w >= len(stat.bits) || stat.bits[w]&(1<<(slot&63)) == 0 {
				t.Fatalf("%s: vertex %d is nonzero in %v, but its slot %d's bit is clear", at, v, p.Dim(i), slot)
			}
			if p.Count(i) > stat.max {
				t.Fatalf("%s: vertex %d counts %d in %v, above its max %d", at, v, p.Count(i), p.Dim(i), stat.max)
			}
		}
		return true
	})
	for slot, p := range ss.vecs {
		if _, ok := owner[int32(slot)]; !ok && p.Len() > 0 {
			t.Fatalf("%s: slot %d, which no live vertex holds, keeps the vector %v", at, slot, p)
		}
	}
	for d, stat := range ss.dims {
		n := 0
		for w, word := range stat.bits {
			for ; word != 0; word &= word - 1 {
				slot := int32(w<<6 | bits.TrailingZeros64(word))
				if _, ok := ss.vecs[slot].Find(d); !ok {
					t.Fatalf("%s: slot %d's bit is set in %v, where its sealed vector %v is zero", at, slot, d, ss.vecs[slot])
				}
				n++
			}
		}
		if n == 0 || int32(n) != stat.n {
			t.Fatalf("%s: dimension %v counts %d members for %d set bits", at, d, stat.n, n)
		}
	}
}

// TestSkylineWorkDeterministic: Skyline's probe scans a dimension's members
// in slot order, slots are issued in vertex and op order, and candidate
// generation dedupes by query
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
		for i := range deltas {
			deltas[i].Moves, _ = npv.Diff(nil, deltas[i].Old, deltas[i].New)
		}
		var sc qindex.Scratch
		var tasks []pairTask
		candidates := 0
		step := func() {
			qids := f.ix.AffectedQueriesInto(&sc, deltas)
			candidates = len(qids)
			tasks = tasks[:0]
			for _, qid := range qids {
				tasks = append(tasks, pairTask{q: f.queries[qid]})
			}
			ss.probe(tasks)
			for i := range tasks {
				tasks[i].tally.Flush()
			}
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

// memoRig drives a depth-1 Skyline and the NL oracle through the same
// registrations and change sets on one stream, and fails as soon as their
// candidate sets differ. The memo tests below use it to steer a pair's
// witness memo into one corner at a time.
type memoRig struct {
	t   *testing.T
	sky *Skyline
	nl  *NL
}

func newMemoRig(t *testing.T, g0 *graph.Graph, queries ...*graph.Graph) *memoRig {
	t.Helper()
	m := &memoRig{t: t, sky: NewSkyline(1), nl: NewNL(1)}
	for i, q := range queries {
		m.addQuery(core.QueryID(i), q)
	}
	for _, f := range []core.Filter{m.sky, m.nl} {
		if err := f.AddStream(0, g0.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	m.check("registration")
	return m
}

func (m *memoRig) addQuery(id core.QueryID, q *graph.Graph) {
	m.t.Helper()
	for _, f := range []core.Filter{m.sky, m.nl} {
		if err := f.AddQuery(id, q); err != nil {
			m.t.Fatal(err)
		}
	}
	m.check(fmt.Sprintf("add query %d", id))
}

func (m *memoRig) removeQuery(id core.QueryID) {
	m.t.Helper()
	for _, f := range []core.Filter{m.sky, m.nl} {
		if err := f.RemoveQuery(id); err != nil {
			m.t.Fatal(err)
		}
	}
	m.check(fmt.Sprintf("remove query %d", id))
}

func (m *memoRig) apply(at string, cs ...graph.ChangeOp) {
	m.t.Helper()
	for _, f := range []core.Filter{m.sky, m.nl} {
		if err := f.Apply(0, cs); err != nil {
			m.t.Fatal(err)
		}
	}
	m.check(at)
}

func (m *memoRig) check(at string) {
	m.t.Helper()
	if got, want := m.sky.Candidates(), m.nl.Candidates(); !reflect.DeepEqual(got, want) {
		m.t.Fatalf("%s: Skyline candidates %v != NL %v", at, got, want)
	}
	checkPairMemos(m.t, &m.sky.vecJoin, at)
	for _, s := range m.sky.streams {
		checkDimStats(m.t, s.vecStream.(*skyStream), at)
	}
}

// checkPairMemos asserts the witness memo's invariants on every stream of
// a Skyline: each live entry's witness, if any, is the slot of a live
// vertex whose sealed vector dominates the entry's vector; every nonempty
// vector of a joinable pair has a witness; each refuted pair's refuting
// vector has no witness and no live dominator (for the empty vector, which
// any vertex dominates: the stream has no vertex); need counts, per entry,
// the refuted pairs it refutes; each ref's open flag is set exactly when it
// has no witness and a positive need; and the stream's reused task buffer,
// settled, holds no query.
func checkPairMemos(t *testing.T, j *vecJoin, at string) {
	t.Helper()
	for ref := int32(0); ref < int32(j.ix.Refs()); ref++ {
		e := j.ix.Entry(ref)
		for i := 0; i < e.Vec.Len() && len(e.Owners) > 0; i++ {
			if d := e.Vec.Dim(i); e.Vec.Count(i) > j.ix.Cap(d) {
				t.Fatalf("%s: entry %d counts %d in dimension %d, above its cap %d", at, ref, e.Vec.Count(i), d, j.ix.Cap(d))
			}
			if c := e.Vec.Count(i); c <= 0 {
				t.Fatalf("%s: entry %d counts %d in dimension %d", at, ref, c, e.Vec.Dim(i))
			}
		}
	}
	for sid, s := range j.streams {
		ss := s.vecStream.(*skyStream)
		live := make(map[int32]npv.PackedVector)
		ss.store.PackedVectors(func(v graph.VertexID, p npv.PackedVector) bool {
			slot, _ := ss.store.Slot(v)
			live[slot] = p
			for i := 0; i < p.Len(); i++ {
				if c := p.Count(i); c <= 0 {
					t.Fatalf("%s: stream %d vertex %d seals count %d in dimension %d", at, sid, v, c, p.Dim(i))
				}
			}
			return true
		})
		for ref, w := range ss.wit {
			if e := j.ix.Entry(int32(ref)); w >= 0 && len(e.Owners) > 0 {
				if p, ok := live[w]; !ok || !p.Dominates(e.Vec) {
					t.Fatalf("%s: stream %d entry %d: witness slot %d (live=%v) does not dominate it", at, sid, ref, w, ok)
				}
			}
		}
		need := make([]int32, len(ss.need))
		for _, vq := range j.queries {
			r := ss.refute[vq.slot]
			if s.verdict[vq.slot] {
				if r != -1 {
					t.Fatalf("%s: stream %d query %d: joinable but refuted by entry %d", at, sid, vq.id, r)
				}
				for i, ref := range vq.refs {
					if vq.vecs[i].Len() > 0 && ss.wit[ref] < 0 {
						t.Fatalf("%s: stream %d query %d: joinable, but vector %d has no witness", at, sid, vq.id, i)
					}
				}
				continue
			}
			if r < 0 || !slices.Contains(vq.refs, r) {
				t.Fatalf("%s: stream %d query %d: refuted by entry %d, not one of its %v", at, sid, vq.id, r, vq.refs)
			}
			need[r]++
			u := j.ix.Entry(r).Vec
			if ss.wit[r] >= 0 {
				t.Fatalf("%s: stream %d query %d: refuting entry %d has a witness", at, sid, vq.id, r)
			}
			if u.Len() == 0 && ss.store.Len() > 0 {
				t.Fatalf("%s: stream %d query %d: empty refuting vector on a stream with vertices", at, sid, vq.id)
			}
			for slot, p := range live {
				if p.Dominates(u) {
					t.Fatalf("%s: stream %d query %d: refuting entry %d is dominated by slot %d", at, sid, vq.id, r, slot)
				}
			}
		}
		if !slices.Equal(need, ss.need) {
			t.Fatalf("%s: stream %d: need %v; the refuted pairs count %v", at, sid, ss.need, need)
		}
		if len(ss.open) != len(ss.wit) || len(ss.need) != len(ss.wit) {
			t.Fatalf("%s: stream %d: %d open flags and %d needs for %d witnesses", at, sid, len(ss.open), len(ss.need), len(ss.wit))
		}
		for ref, w := range ss.wit {
			if want := w < 0 && ss.need[ref] > 0; (ss.open[ref] == 1) != want || ss.open[ref] > 1 {
				t.Fatalf("%s: stream %d entry %d: open flag %d with witness %d and need %d", at, sid, ref, ss.open[ref], w, ss.need[ref])
			}
		}
		for i, task := range s.tasks[:cap(s.tasks)] {
			if task.q != nil {
				t.Fatalf("%s: stream %d: settled task slot %d still holds query %p", at, sid, i, task.q)
			}
		}
	}
}

// joinable reports Skyline's verdict for query id on the stream.
func (m *memoRig) joinable(id core.QueryID) bool {
	return m.sky.streams[0].verdict[m.sky.queries[id].slot]
}

// memo returns the stream's Skyline state, the witness slot of query id's
// vector i (-1 for none), and the position of the vector refuting the pair
// (-1 when it is joinable).
func (m *memoRig) memo(id core.QueryID, i int) (*skyStream, int32, int) {
	ss := m.sky.streams[0].vecStream.(*skyStream)
	q := m.sky.queries[id]
	return ss, ss.wit[q.refs[i]], slices.Index(q.refs, ss.refute[q.slot])
}

// slotOf returns vertex v's slot in ss's store, -2 when v is not in it (no
// witness, not even -1, matches that).
func slotOf(ss *skyStream, v graph.VertexID) int32 {
	if slot, ok := ss.store.Slot(v); ok {
		return slot
	}
	return -2
}

// star is a center labelled 1 with the given number of leaves labelled 2.
// Its maximal vectors, at depth 1, are the center's (1→2: leaves) first
// and a leaf's (2→1: 1).
func star(t *testing.T, leaves int) *graph.Graph {
	labels := map[graph.VertexID]graph.Label{0: 1}
	var edges [][3]int
	for i := 1; i <= leaves; i++ {
		labels[graph.VertexID(i)] = 2
		edges = append(edges, [3]int{0, i, 0})
	}
	return buildGraph(t, labels, edges)
}

// TestSkylineMemoWitnessShrinks: the center's witness shrinks below it —
// the only other change is the leaf it loses — while the dimension's max
// stays put, held up by nothing. The drop must clear the witness without a
// kernel call and the member scan must refute the pair; regrowth elsewhere
// is a rise on the refuting vector, which records the new dominator.
func TestSkylineMemoWitnessShrinks(t *testing.T) {
	g := buildGraph(t, map[graph.VertexID]graph.Label{0: 1, 1: 2, 2: 2, 3: 1, 4: 2},
		[][3]int{{0, 1, 0}, {0, 2, 0}, {3, 4, 0}})
	m := newMemoRig(t, g, star(t, 2))
	if ss, w, _ := m.memo(0, 0); !m.joinable(0) || w != slotOf(ss, 0) {
		t.Fatalf("the center's witness is not vertex 0: joinable=%v", m.joinable(0))
	}
	m.apply("shrink", graph.DeleteOp(0, 2))
	if _, w, refute := m.memo(0, 0); m.joinable(0) || refute != 0 || w != -1 {
		t.Fatalf("after the shrink: joinable=%v refute=%d witness=%d; want refuted by the center", m.joinable(0), refute, w)
	}
	m.apply("regrow", graph.InsertOp(3, 1, 5, 2, 0))
	if ss, w, _ := m.memo(0, 0); !m.joinable(0) || w != slotOf(ss, 3) {
		t.Fatalf("after regrowth: joinable=%v; want the center witnessed by vertex 3", m.joinable(0))
	}
}

// TestSkylineMemoRefuterDominatedWitnessLost: the center refutes the pair
// while the leaf vector keeps an older witness. In one step the center
// becomes dominated again and the leaf vector's witness retires: the rise
// witnesses the center and queues the pair, the retirement clears the
// leaf's witness, and the re-probe must scan for a new one.
func TestSkylineMemoRefuterDominatedWitnessLost(t *testing.T) {
	m := newMemoRig(t, star(t, 2), star(t, 2))
	m.apply("refute", graph.DeleteOp(0, 2))
	if _, w, refute := m.memo(0, 1); m.joinable(0) || refute != 0 || w < 0 {
		t.Fatalf("joinable=%v refute=%d leaf witness=%d; want refuted by the center with the leaf witnessed",
			m.joinable(0), refute, w)
	}
	m.apply("flip", graph.InsertOp(0, 1, 3, 2, 0), graph.InsertOp(0, 1, 4, 2, 0), graph.DeleteOp(0, 1))
	if ss, w, _ := m.memo(0, 1); !m.joinable(0) || (w != slotOf(ss, 3) && w != slotOf(ss, 4)) {
		t.Fatalf("joinable=%v; want the leaf vector witnessed by vertex 3 or 4", m.joinable(0))
	}
}

// TestSkylineMemoSlotReuse: a query registered into a removed query's slot
// starts from an empty pair memo, and the removed query's entries keep no
// witness the new query could inherit: accepting the three-leaf star on
// the two-leaf center's still-sealed witness would be wrong.
func TestSkylineMemoSlotReuse(t *testing.T) {
	m := newMemoRig(t, star(t, 2), star(t, 2))
	slot := m.sky.queries[0].slot
	m.removeQuery(0)
	if ss := m.sky.streams[0].vecStream.(*skyStream); ss.refute[slot] != -1 {
		t.Fatal("RemoveQuery kept the memo")
	}
	m.addQuery(1, star(t, 3))
	if m.sky.queries[1].slot != slot {
		t.Fatalf("query 1 took slot %d, not the recycled %d", m.sky.queries[1].slot, slot)
	}
	if m.joinable(1) {
		t.Fatal("three-leaf star joinable with a two-leaf center")
	}
	m.apply("unrelated", graph.InsertOp(5, 3, 6, 3, 0))
	m.apply("third leaf", graph.InsertOp(0, 1, 3, 2, 0))
	if !m.joinable(1) {
		t.Fatal("three-leaf star not joinable after the third leaf")
	}
}

// TestSkylineSlotReuse: a vertex slot freed by a retirement starts clean
// for the vertex that takes it. The two-leaf star's center and a leaf
// witness the query's vectors and retire with the other leaf, which
// refutes the pair, while an edge keeps both of the star's dimensions
// populated; in the next step three new vertices, which dominate neither
// vector, take the three slots. No witness may name a reused slot, and no
// bit the retired vertices left set may survive (checkDimStats).
func TestSkylineSlotReuse(t *testing.T) {
	g := buildGraph(t, map[graph.VertexID]graph.Label{0: 1, 1: 2, 2: 2, 3: 1, 4: 2}, [][3]int{{0, 1, 0}, {0, 2, 0}, {3, 4, 0}})
	m := newMemoRig(t, g, star(t, 2))
	ss := m.sky.streams[0].vecStream.(*skyStream)
	retired := []int32{slotOf(ss, 0), slotOf(ss, 1), slotOf(ss, 2)}
	for i := range m.sky.queries[0].refs {
		if _, w, _ := m.memo(0, i); !m.joinable(0) || !slices.Contains(retired, w) {
			t.Fatalf("joinable=%v, vector %d witnessed by slot %d; want a witness among the star's slots %v", m.joinable(0), i, w, retired)
		}
	}
	m.apply("retire", graph.DeleteOp(0, 1), graph.DeleteOp(0, 2))
	if m.joinable(0) {
		t.Fatal("the star query is joinable after its center's only dominator retired")
	}
	m.apply("reuse", graph.InsertOp(5, 1, 6, 1, 0), graph.InsertOp(6, 1, 7, 1, 0))
	for _, v := range []graph.VertexID{5, 6, 7} {
		if slot := slotOf(ss, v); !slices.Contains(retired, slot) {
			t.Fatalf("vertex %d took slot %d, not one of the retired %v", v, slot, retired)
		}
	}
	for ref, w := range ss.wit {
		if slices.Contains(retired, w) {
			t.Fatalf("entry %d is witnessed by the reused slot %d", ref, w)
		}
	}
}

// TestSkylineSharedWitness: two queries with a common maximal vector share
// its entry, so one stream-side witness serves both. Removing one keeps
// the entry, and its witness, for the other.
func TestSkylineSharedWitness(t *testing.T) {
	path := buildGraph(t, map[graph.VertexID]graph.Label{0: 2, 1: 1, 2: 2, 3: 3}, [][3]int{{0, 1, 0}, {1, 2, 0}, {2, 3, 0}})
	m := newMemoRig(t, path, star(t, 2), path)
	ss, w, _ := m.memo(0, 0)
	at := slices.Index(m.sky.queries[1].refs, m.sky.queries[0].refs[0])
	if at < 0 || w < 0 || !m.joinable(1) {
		t.Fatalf("the center entry is not shared and witnessed: refs %v and %v", m.sky.queries[0].refs, m.sky.queries[1].refs)
	}
	m.removeQuery(0)
	if _, w1, _ := m.memo(1, at); w1 != w || w1 != slotOf(ss, 1) {
		t.Fatal("removing one owner dropped the shared witness")
	}
	m.apply("shrink", graph.DeleteOp(1, 2))
	if m.joinable(1) {
		t.Fatal("the path is still joinable without its center's second leaf")
	}
}

// TestSkylineRefutedPairKeepsWitnesses: a probe that refutes a pair still
// records the dominators it found on the way, so the vectors it settled
// are not scanned again by the next probe of any query that owns them.
func TestSkylineRefutedPairKeepsWitnesses(t *testing.T) {
	q := buildGraph(t, map[graph.VertexID]graph.Label{0: 1, 1: 2, 2: 2, 3: 3, 4: 4},
		[][3]int{{0, 1, 0}, {0, 2, 0}, {3, 4, 0}})
	m := newMemoRig(t, star(t, 2), q)
	if ss, w, refute := m.memo(0, 0); m.joinable(0) || refute < 1 || w != slotOf(ss, 0) {
		t.Fatalf("joinable=%v refute=%d; want refuted past the center, which vertex 0 witnesses", m.joinable(0), refute)
	}
}

// TestSkylineRecycledRefStartsClean: a ref the index reissues to a new
// vector starts with no witness and no need in every stream. The removed
// star's center and leaf entries are witnessed on the star stream and
// refute the pair on the other; their refs go to an unrelated edge's
// vectors, which no vertex of either stream dominates.
func TestSkylineRecycledRefStartsClean(t *testing.T) {
	f, nl := NewSkyline(1), NewNL(1)
	other := buildGraph(t, map[graph.VertexID]graph.Label{0: 3, 1: 3}, [][3]int{{0, 1, 0}})
	for _, g := range []core.Filter{f, nl} {
		if err := g.AddQuery(0, star(t, 2)); err != nil {
			t.Fatal(err)
		}
		for sid, g0 := range []*graph.Graph{star(t, 2), other} {
			if err := g.AddStream(core.StreamID(sid), g0); err != nil {
				t.Fatal(err)
			}
		}
	}
	old := slices.Clone(f.queries[0].refs)
	edge := buildGraph(t, map[graph.VertexID]graph.Label{0: 4, 1: 5}, [][3]int{{0, 1, 0}})
	for _, g := range []core.Filter{f, nl} {
		if err := g.RemoveQuery(0); err != nil {
			t.Fatal(err)
		}
		if err := g.AddQuery(1, edge); err != nil {
			t.Fatal(err)
		}
	}
	q := f.queries[1]
	got := slices.Clone(q.refs)
	slices.Sort(got)
	if slices.Sort(old); !slices.Equal(got, old) {
		t.Fatalf("the edge took refs %v, not the freed %v", q.refs, old)
	}
	for sid, s := range f.streams {
		ss := s.vecStream.(*skyStream)
		for i, ref := range q.refs {
			if want := int32(min(1, 1-i)); ss.wit[ref] != -1 || ss.need[ref] != want {
				t.Fatalf("stream %d: reissued ref %d has witness %d and need %d; want none and %d", sid, ref, ss.wit[ref], ss.need[ref], want)
			}
		}
	}
	if got, want := f.Candidates(), nl.Candidates(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Skyline candidates %v != NL %v", got, want)
	}
	checkPairMemos(t, &f.vecJoin, "reissued")
}

// TestSkylineRemoveQueryAllocsIndependentOfStreams: removing a query that
// holds the unique maximum of a dimension allocates the same over 2 streams
// as over 64. Caps are high-water marks, so the removal leaves the cap above
// every live count and reseals no stream. Only RemoveQuery is counted; the
// query registers again between rounds, outside the counted region, and
// the first two rounds warm the buffers the removal appends to.
func TestSkylineRemoveQueryAllocsIndependentOfStreams(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocs := func(streams int) uint64 {
		f := NewSkyline(1)
		if err := f.AddQuery(0, star(t, 2)); err != nil {
			t.Fatal(err)
		}
		for sid := 0; sid < streams; sid++ {
			if err := f.AddStream(core.StreamID(sid), star(t, 8)); err != nil {
				t.Fatal(err)
			}
		}
		var ms runtime.MemStats
		var total uint64
		for round := 0; round < 6; round++ {
			if err := f.AddQuery(1, star(t, 6)); err != nil {
				t.Fatal(err)
			}
			// The center's vector is the heaviest: (1→2: 6) beats query
			// 0's (1→2: 2), so query 1 alone holds the dimension's cap.
			u := f.queries[1].vecs[0]
			if k, ok := f.queries[0].vecs[0].Find(u.Dim(0)); !ok || f.queries[0].vecs[0].Count(k) >= u.Count(0) || f.ix.Cap(u.Dim(0)) != u.Count(0) {
				t.Fatalf("query 1 does not hold the unique maximum of dimension %d", u.Dim(0))
			}
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			err := f.RemoveQuery(1)
			runtime.ReadMemStats(&ms)
			if err != nil {
				t.Fatal(err)
			}
			if round >= 2 {
				total += ms.Mallocs - before
			}
		}
		return total
	}
	small, large := allocs(2), allocs(64)
	if small != large {
		t.Fatalf("RemoveQuery allocations grew with the stream count: %d over 4 removals at 2 streams, %d at 64", small, large)
	}
	t.Logf("RemoveQuery allocations over 4 removals: %d at 2 and at 64 streams", small)
}
