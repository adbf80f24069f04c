package join

import (
	"slices"
	"testing"

	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/npv"
	"nntstream/internal/qindex"
)

// TestDSCPositionCrossing exercises the positional-delta update directly:
// a stream vertex whose dimension count crosses query entries must gain and
// lose exactly those entries' dominance contributions.
func TestDSCPositionCrossing(t *testing.T) {
	f := NewDSC(1)
	// Query: center A with two B leaves → its center vector has count 2 in
	// the single dimension (1, A-0->B).
	q := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1, 2: 1},
		[][3]int{{0, 1, 0}, {0, 2, 0}})
	if err := f.AddQuery(0, q); err != nil {
		t.Fatal(err)
	}
	// Stream: center A with ONE B leaf — count 1 < 2: not dominated.
	g := buildGraph(t, map[graph.VertexID]graph.Label{10: 0, 11: 1},
		[][3]int{{10, 11, 0}})
	if err := f.AddStream(0, g); err != nil {
		t.Fatal(err)
	}
	if got := f.Candidates(); len(got) != 0 {
		t.Fatalf("premature candidate: %v", got)
	}
	// Add a second B leaf: the stream center's count crosses the query
	// entry (value 2) — the pair must appear. (Leaves are dominated by
	// leaves.)
	if err := f.Apply(0, graph.ChangeSet{graph.InsertOp(10, 0, 12, 1, 0)}); err != nil {
		t.Fatal(err)
	}
	got := f.Candidates()
	if len(got) != 1 || got[0] != (core.Pair{Stream: 0, Query: 0}) {
		t.Fatalf("Candidates = %v; want the pair", got)
	}
	// Remove it again: the position must cross back down.
	if err := f.Apply(0, graph.ChangeSet{graph.DeleteOp(10, 12)}); err != nil {
		t.Fatal(err)
	}
	if got := f.Candidates(); len(got) != 0 {
		t.Fatalf("stale candidate after crossing down: %v", got)
	}
}

// TestDSCVertexRetirementDrainsCounters: deleting a stream vertex must
// remove its dominance contributions entirely — no dominant counter and no
// cover survives it.
func TestDSCVertexRetirementDrainsCounters(t *testing.T) {
	f := NewDSC(1)
	q := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1}, [][3]int{{0, 1, 0}})
	if err := f.AddQuery(0, q); err != nil {
		t.Fatal(err)
	}
	g := buildGraph(t, map[graph.VertexID]graph.Label{10: 0, 11: 1}, [][3]int{{10, 11, 0}})
	if err := f.AddStream(0, g); err != nil {
		t.Fatal(err)
	}
	if got := f.Candidates(); len(got) != 1 {
		t.Fatalf("Candidates = %v; want the pair", got)
	}
	// Deleting the only edge retires both vertices.
	if err := f.Apply(0, graph.ChangeSet{graph.DeleteOp(10, 11)}); err != nil {
		t.Fatal(err)
	}
	if got := f.Candidates(); len(got) != 0 {
		t.Fatalf("Candidates = %v; want none after retirement", got)
	}
	assertDSCDrained(t, "after retirement", f.streams[0])
}

// assertDSCDrained fails unless the stream keeps no dominant counter and
// no entry is covered.
func assertDSCDrained(t *testing.T, at string, s *vecJoinStream) {
	t.Helper()
	ds := s.vecStream.(*dscStream)
	if len(ds.dom) != 0 || slices.ContainsFunc(ds.cover, func(n int32) bool { return n != 0 }) {
		t.Fatalf("%s: counters not drained: dom=%v cover=%v", at, ds.dom, ds.cover)
	}
}

// checkDSCCounters recounts, on every stream, each live entry's dominant
// counters and cover from the sealed vectors, and requires a freed entry to
// hold neither.
func checkDSCCounters(t *testing.T, j *vecJoin, at string) {
	t.Helper()
	for sid, s := range j.streams {
		ds := dscOf(s)
		for k, n := range ds.dom {
			if e := j.ix.Entry(int32(uint32(k))); n <= 0 || len(e.Owners) == 0 {
				t.Fatalf("%s: stream %d vertex %d: counter %d for entry %d of %d owners", at, sid, int32(k>>32), n, int32(uint32(k)), len(e.Owners))
			}
		}
		for ref := int32(0); ref < int32(j.ix.Refs()); ref++ {
			checkDSCColumn(t, ds, sid, ref, at)
		}
	}
}

// checkDSCMoved is checkDSCCounters for what the op moved, on every
// stream. The seals logged since the last check (sealLog) name the
// (vertex, entry) pairs their transitions crossed: each such counter is
// recounted from the vertex's sealed vector, and each crossed entry's cover
// must be the cover the last check left, plus the vertices that came to
// dominate it fully, minus those that stopped. refs are the entries of a
// query just registered or removed: a freed one is recounted whole
// (checkDSCColumn); a registered one's counters were rebuilt, not moved. A
// counter that moves without a transition is left to the full recount at
// the end of the schedule.
func checkDSCMoved(t *testing.T, j *vecJoin, refs []int32, at string) {
	t.Helper()
	for sid, s := range j.streams {
		log := s.vecStream.(*sealLog)
		ds := log.dscStream
		if n := j.ix.Refs(); len(log.net) < n {
			log.net, log.seen = make([]int32, n), make([]int, n)
		}
		want := append(log.want[:0], log.cover...)
		for len(want) < len(ds.cover) {
			want = append(want, 0)
		}
		log.want, log.crossed = want, log.crossed[:0]
		clear(log.recounted)
		// Latest first: a vertex's counters are recounted at its last seal.
		for i := len(log.seals) - 1; i >= 0; i-- {
			sl := log.seals[i]
			log.tick++
			first := len(log.crossed)
			for _, c := range log.rows[sl.from:sl.to] {
				if log.seen[c.ref] != log.tick {
					log.seen[c.ref], log.net[c.ref] = log.tick, 0
					log.crossed = append(log.crossed, c.ref)
				}
				log.net[c.ref] += int32(2*b2i(c.rise) - 1)
			}
			v := sl.dl.Vertex
			last := !log.recounted[v]
			log.recounted[v] = true
			for _, ref := range log.crossed[first:] {
				e := j.ix.Entry(ref)
				full, got := int32(e.Vec.Len()), dominance(sl.dl.New, sl.dl.HasNew, e)
				want[ref] += int32(b2i(got == full) - b2i(got-log.net[ref] == full))
				if kept := ds.dom[domKey(v, ref)]; last && kept != got {
					t.Fatalf("%s: stream %d vertex %d crossed entry %d: counter %d; recount %d", at, sid, v, ref, kept, got)
				}
			}
		}
		log.seals, log.rows = log.seals[:0], log.rows[:0]
		for _, ref := range refs {
			if len(j.ix.Entry(ref).Owners) == 0 {
				checkDSCColumn(t, ds, sid, ref, at)
			}
		}
		for _, ref := range log.crossed {
			if !slices.Contains(refs, ref) && ds.cover[ref] != want[ref] {
				t.Fatalf("%s: stream %d crossed entry %d: cover %d; %d after the transitions", at, sid, ref, ds.cover[ref], want[ref])
			}
		}
		log.cover = append(log.cover[:0], ds.cover...)
	}
}

// checkDSCColumn recounts entry ref on one stream: every sealed vertex's
// counter for it and its cover, none of either once it has no owners.
func checkDSCColumn(t *testing.T, ds *dscStream, sid core.StreamID, ref int32, at string) {
	t.Helper()
	e := ds.ix.Entry(ref)
	var cover int32
	ds.store.PackedVectors(func(v graph.VertexID, p npv.PackedVector) bool {
		n := dominance(p, len(e.Owners) > 0, e)
		if got := ds.dom[domKey(v, ref)]; got != n {
			t.Fatalf("%s: stream %d vertex %d: entry %d counter %d; recount %d", at, sid, v, ref, got, n)
		}
		if n > 0 && n == int32(e.Vec.Len()) {
			cover++
		}
		return true
	})
	if ds.cover[ref] != cover {
		t.Fatalf("%s: stream %d entry %d (%d owners): cover %d; recount %d", at, sid, ref, len(e.Owners), ds.cover[ref], cover)
	}
}

// dominance is in how many of e's support dimensions p reaches e's count,
// the dominant counter DSC keeps for p's vertex: 0 when the vertex has no
// vector (ok false).
func dominance(p npv.PackedVector, ok bool, e *qindex.Entry) int32 {
	var n int32
	for i, k := 0, 0; ok && i < e.Vec.Len(); i++ {
		d := e.Vec.Dim(i)
		for k < p.Len() && p.Dim(k) < d {
			k++
		}
		n += int32(b2i(k < p.Len() && p.Dim(k) == d && p.Count(k) >= e.Vec.Count(i)))
	}
	return n
}

// sealLog is a dscStream that logs its seal transitions, each with the
// rows it crosses (qindex.Index.Ranges, the walk fold takes), and keeps
// the covers as the last check left them, so the check after an op
// recounts only what the op's transitions crossed (checkDSCMoved).
type sealLog struct {
	*dscStream
	seals []loggedSeal
	rows  []crossedRow
	cover []int32
	buf   []qindex.Range
	// The check's scratch: net[ref] is a transition's rises minus drops
	// across ref's rows, seen[ref] the tick of the last transition that
	// crossed ref, crossed lists the refs the op's transitions crossed
	// (once per transition), want the covers they imply, and recounted the
	// vertices whose counters were recounted.
	net       []int32
	seen      []int
	tick      int
	crossed   []int32
	want      []int32
	recounted map[graph.VertexID]bool
}

// loggedSeal is one transition and its crossed rows, rows[from:to].
type loggedSeal struct {
	dl       npv.DirtyDelta
	from, to int
}

// crossedRow is one row a transition crossed: its entry, and whether the
// transition rose through it.
type crossedRow struct {
	ref  int32
	rise bool
}

func (s *sealLog) reconcile(verdict []bool) ([]core.QueryID, bool) {
	deltas := s.store.SealDirty()
	for _, dl := range deltas {
		from := len(s.rows)
		s.buf, _ = s.ix.Ranges(dl, s.buf[:0])
		for _, rg := range s.buf {
			for _, ref := range rg.Refs {
				s.rows = append(s.rows, crossedRow{ref, !rg.Drop})
			}
		}
		s.seals = append(s.seals, loggedSeal{dl, from, len(s.rows)})
	}
	return s.fold(deltas, verdict)
}

// newLoggedDSC is NewDSC with every stream's seals logged.
func newLoggedDSC(depth int) *DSC {
	f := NewDSC(depth)
	newStream := f.newStream
	f.newStream = func(ix *qindex.Index, store *npv.Store) vecStream {
		return &sealLog{dscStream: newStream(ix, store).(*dscStream), recounted: make(map[graph.VertexID]bool)}
	}
	return f
}

// dscOf is a DSC stream's strategy half, logged or not.
func dscOf(s *vecJoinStream) *dscStream {
	if l, ok := s.vecStream.(*sealLog); ok {
		return l.dscStream
	}
	return s.vecStream.(*dscStream)
}

// TestSkylineMaxRefutation checks the per-dimension max shortcut: a query
// vector exceeding the stream's max in one dimension is refuted without a
// member scan (observable as a pruned pair).
func TestSkylineMaxRefutation(t *testing.T) {
	f := NewSkyline(1)
	// Query center has THREE B leaves; stream max per dimension is 2.
	q := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1, 2: 1, 3: 1},
		[][3]int{{0, 1, 0}, {0, 2, 0}, {0, 3, 0}})
	if err := f.AddQuery(0, q); err != nil {
		t.Fatal(err)
	}
	g := buildGraph(t, map[graph.VertexID]graph.Label{10: 0, 11: 1, 12: 1},
		[][3]int{{10, 11, 0}, {10, 12, 0}})
	if err := f.AddStream(0, g); err != nil {
		t.Fatal(err)
	}
	if got := f.Candidates(); len(got) != 0 {
		t.Fatalf("Candidates = %v; want none (3 > max 2)", got)
	}
	// Third leaf arrives: max rises to 3 and the pair passes.
	if err := f.Apply(0, graph.ChangeSet{graph.InsertOp(10, 0, 13, 1, 0)}); err != nil {
		t.Fatal(err)
	}
	if got := f.Candidates(); len(got) != 1 {
		t.Fatalf("Candidates = %v; want the pair", got)
	}
}

// TestDSCCandidatesAllocatesOnce: a read builds the list from the verdicts
// into one slice sized by the pair count, one allocation whatever the
// number of candidate pairs, and counting them allocates nothing. DSC,
// NL, Skyline, Exact and Branch keep the same answer table.
func TestDSCCandidatesAllocatesOnce(t *testing.T) {
	q := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1}, [][3]int{{0, 1, 0}})
	g := buildGraph(t, map[graph.VertexID]graph.Label{10: 0, 11: 1}, [][3]int{{10, 11, 0}})
	filters := []func() core.Filter{
		func() core.Filter { return NewDSC(1) },
		func() core.Filter { return NewNL(1) },
		func() core.Filter { return NewSkyline(1) },
		func() core.Filter { return NewExact() },
		func() core.Filter { return NewBranch(1) },
	}
	for _, newFilter := range filters {
		for _, pairs := range []int{10, 200} {
			f := newFilter()
			for qid := 0; qid < pairs/2; qid++ {
				if err := f.AddQuery(core.QueryID(qid), q); err != nil {
					t.Fatal(err)
				}
			}
			for sid := 0; sid < 2; sid++ {
				if err := f.AddStream(core.StreamID(sid), g); err != nil {
					t.Fatal(err)
				}
			}
			if got := len(f.Candidates()); got != pairs {
				t.Fatalf("%s: %d candidates; want %d", f.Name(), got, pairs)
			}
			if allocs := testing.AllocsPerRun(100, func() { _ = f.Candidates() }); allocs != 1 {
				t.Fatalf("%s: Candidates at %d pairs: %v allocations; want 1", f.Name(), pairs, allocs)
			}
			c := f.(core.CandidateCounter)
			if allocs := testing.AllocsPerRun(100, func() { _ = c.CandidateCount() }); allocs != 0 {
				t.Fatalf("%s: CandidateCount at %d pairs: %v allocations; want 0", f.Name(), pairs, allocs)
			}
		}
	}
}
