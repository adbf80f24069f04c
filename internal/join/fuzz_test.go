package join

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"nntstream/internal/core"
	"nntstream/internal/fuzzsched"
	"nntstream/internal/graph"
	"nntstream/internal/npv"
)

// FuzzSkylineMatchesNL decodes a fuzzsched schedule over two streams —
// start graphs, change batches, and query registrations and removals — and
// runs it through checkSkylineSchedule. Seeds are in fuzzsched's format:
// the header (depth − 1), the alphabet (6: three vertex labels and two edge
// labels; 0: one of each), a base byte per stream, then ops — 0x01 u<<4|v
// deletes, 0x00 (0x80: edge label 1) u<<4|v inserts, 0x06 moves edge ops
// to stream 1, 0x02 ends the step, 0x03 b registers base graph b, 0x0b b a
// subgraph of stream b&1, and 0x07 i removes live query i.
func FuzzSkylineMatchesNL(f *testing.F) {
	f.Add([]byte{})
	// Subgraph queries of both streams, a batch over both, a removal and a
	// base query registered live.
	f.Add([]byte{2, 6, 6<<5 | 8, 3<<5 | 6, 0x0b, 0x50, 0x0b, 0x31,
		0x00, 0x05, 0x06, 0x01, 0x01, 0x02, 0x07, 0x00, 0x80, 0x15, 0x02, 0x03, 4<<5 | 4})
	// Dense bases: K8 streams, at depth 3 and at depth 4, with K4 and K5
	// queries, losing and regaining edges while K4 leaves and comes back.
	for _, h := range []byte{2, 3} {
		f.Add([]byte{h, 6, 4<<5 | 8, 3<<5 | 6, 0x03, 4<<5 | 4, 0x03, 4<<5 | 5,
			0x01, 0x01, 0x01, 0x23, 0x02, 0x00, 0x01, 0x02, 0x07, 0x00, 0x01, 0x45, 0x06, 0x01, 0x02, 0x02, 0x03, 4<<5 | 4})
	}
	// A registration after the streams (an empty step adds them) raises a
	// cap, so every stream reseals under the new caps; the removal leaves
	// caps above every live count, and batches then run over the resealed
	// vectors.
	f.Add([]byte{2, 6, 4<<5 | 6, 2<<5 | 7, 0x0b, 0x21, 0x02, 0x03, 4<<5 | 5, 0x07, 0x01,
		0x01, 0x01, 0x02, 0x00, 0x01, 0x01, 0x23, 0x02, 0x06, 0x01, 0x01, 0x02})
	// The query holding the unique maximum of the uniformly labelled
	// dimensions (K5) leaves, and later batches move the stream vertices'
	// counts between the path's live maximum and the cap left above it.
	f.Add([]byte{2, 0, 4<<5 | 6, 4<<5 | 6, 0x03, 4<<5 | 5, 0x03, 1<<5 | 4,
		0x01, 0x01, 0x02, 0x07, 0x00, 0x01, 0x02, 0x02, 0x01, 0x03, 0x02, 0x00, 0x01, 0x02})
	// A relabelling insert fails stream 0's change set partway: the join
	// applies the deletion and nothing from the failing insert on.
	f.Add([]byte{2, 6, 1<<5 | 5, 4<<5 | 4, 0x0b, 0x20, 0x01, 0x01, 0x0c, 0x26, 0x00, 0x37, 0x02, 0x80, 0x01, 0x02})
	// Empty streams grow vertex by vertex under a K3 query registered
	// before them, in both streams in one batch.
	f.Add([]byte{2, 6, 0, 0, 0x03, 4<<5 | 3, 0x00, 0x01, 0x28, 0x12, 0x06, 0x00, 0x01, 0x02, 0x00, 0x02, 0x02, 0x07, 0x00})
	// Depth 1, four vertex labels: G(20, 1/2) and a star, a subgraph and a
	// star query.
	f.Add([]byte{0, 7, 6<<5 | 20, 2<<5 | 9, 0x0b, 0x30, 0x03, 2<<5 | 4, 0x01, 0x01, 0x01, 0x02, 0x06, 0x01, 0x03, 0x02, 0x80, 0x01, 0x02})
	// Depth 2: both streams are 12-vertex stars whose hub edges are
	// deleted and re-inserted under the other edge label.
	f.Add([]byte{1, 6, 2<<5 | 12, 2<<5 | 12, 0x0b, 0x21, 0x01, 0x01, 0x01, 0x02, 0x06, 0x01, 0x03, 0x00, 0x03, 0x02, 0x00, 0x01, 0x06, 0x80, 0x02, 0x02})
	// Query churn at depth 3: base and subgraph queries registered and
	// removed between batches, so slots and refs are recycled.
	f.Add([]byte{2, 6, 6<<5 | 10, 7<<5 | 8, 0x03, 4<<5 | 4, 0x0b, 0x30, 0x0b, 0x41, 0x02, 0x07, 0x01, 0x03, 4<<5 | 5,
		0x07, 0x00, 0x0b, 0x51, 0x01, 0x01, 0x02, 0x07, 0x02, 0x03, 4<<5 | 4, 0x00, 0x01, 0x02})
	// Depth 4 on two wheels, with subgraph queries of each.
	f.Add([]byte{3, 6, 3<<5 | 7, 3<<5 | 7, 0x0b, 0x20, 0x0b, 0x31, 0x01, 0x12, 0x06, 0x01, 0x03, 0x02,
		0x00, 0x12, 0x00, 0x14, 0x02, 0x07, 0x00, 0x06, 0x00, 0x03, 0x02})
	// A query of three isolated vertices (an empty-support vector) while
	// the empty stream 1 gains its first edge and loses it again.
	f.Add([]byte{2, 6, 1<<5 | 6, 0, 0x03, 3, 0x02, 0x06, 0x00, 0x01, 0x02, 0x06, 0x01, 0x01, 0x02})
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 6; i++ {
		b := make([]byte, 8+r.Intn(56))
		r.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSkylineSchedule(t, fuzzsched.Decode(data, 2, npv.MaxDepth))
	})
}

// checkSkylineSchedule runs a schedule through two Skylines, one driven
// through Apply and one through the pool's ApplyAll, a DSC driven through
// Apply, and the NL oracle, and after every op once the streams are added
// compares their candidates. The queries the schedule registers before its
// first other op are registered before the streams are added; a step
// applies each stream's Applied set.
// The schedule steers the witness memo: batches shrink, retire and return
// witnesses, removed queries' slots are taken by new ones, and shared
// vectors' entries outlive one owner or are freed and reissued; after every
// op both Skylines' witness memos and dimension statistics must keep their
// invariants (checkPairMemos, checkDimStats), no cap may fall, and DSC's
// dominant counters and covers must equal a recount from the sealed
// vectors: after every op for what the op moved (checkDSCMoved), and at the
// end for every counter (checkDSCCounters).
func checkSkylineSchedule(t *testing.T, sc fuzzsched.Schedule) {
	t.Helper()
	seq, par, dsc, nl := NewSkyline(sc.Depth), NewSkyline(sc.Depth), newLoggedDSC(sc.Depth), NewNL(sc.Depth)
	par.SetWorkers(4)
	filters := []core.Filter{seq, par, dsc, nl}
	var live []core.QueryID
	nextQ := core.QueryID(0)
	// seen holds, per Skyline, the caps the checks have read: a cap may
	// rise, and must never fall.
	seen := []map[npv.Dim]int32{{}, {}}
	// refs are the DSC entries of the query the op registered or removed.
	check := func(op int, refs []int32) {
		want := nl.Candidates()
		if got := dsc.Candidates(); !reflect.DeepEqual(got, want) {
			t.Fatalf("op %d: DSC candidates %v != NL %v", op, got, want)
		}
		checkDSCMoved(t, &dsc.vecJoin, refs, fmt.Sprintf("op %d", op))
		for k, f := range []*Skyline{seq, par} {
			if got := f.Candidates(); !reflect.DeepEqual(got, want) {
				t.Fatalf("op %d: Skyline candidates %v != NL %v", op, got, want)
			}
			checkPairMemos(t, &f.vecJoin, fmt.Sprintf("op %d", op))
			for sid, s := range f.streams {
				checkDimStats(t, s.vecStream.(*skyStream), fmt.Sprintf("op %d stream %d", op, sid))
			}
			for d, c := range seen[k] {
				if now := f.ix.Cap(d); now < c {
					t.Fatalf("op %d: the cap of dimension %d fell from %d to %d", op, d, c, now)
				}
			}
			// A freed entry keeps its vector, so the caps a removed
			// query held stay recorded.
			for ref := int32(0); ref < int32(f.ix.Refs()); ref++ {
				u := f.ix.Entry(ref).Vec
				for i := 0; i < u.Len(); i++ {
					seen[k][u.Dim(i)] = f.ix.Cap(u.Dim(i))
				}
			}
		}
	}
	added := false
	addStreams := func() {
		for sid, g := range sc.Streams {
			for _, f := range filters {
				if err := f.AddStream(core.StreamID(sid), g); err != nil {
					t.Fatal(err)
				}
			}
		}
		added = true
		check(-1, nil)
	}
	for i, op := range sc.Ops {
		if op.Kind != fuzzsched.AddQuery && !added {
			addStreams()
		}
		var refs []int32
		switch op.Kind {
		case fuzzsched.AddQuery:
			for _, f := range filters {
				if err := f.AddQuery(nextQ, op.Query); err != nil {
					t.Fatal(err)
				}
			}
			refs = dsc.queries[nextQ].refs
			live = append(live, nextQ)
			nextQ++
		case fuzzsched.RemoveQuery:
			refs = dsc.queries[live[op.Index]].refs
			for _, f := range filters {
				if err := f.RemoveQuery(live[op.Index]); err != nil {
					t.Fatal(err)
				}
			}
			live = append(live[:op.Index], live[op.Index+1:]...)
		case fuzzsched.Step:
			batch := make(map[core.StreamID]graph.ChangeSet)
			for sid, cs := range op.Applied {
				if len(cs) > 0 {
					batch[core.StreamID(sid)] = cs
				}
			}
			for _, f := range []core.Filter{seq, dsc, nl} {
				for _, sid := range batchStreamIDs(batch) {
					if err := f.Apply(sid, batch[sid]); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := par.ApplyAll(batch); err != nil {
				t.Fatal(err)
			}
		}
		if added {
			check(i, refs)
		}
	}
	if !added {
		addStreams()
	}
	checkDSCCounters(t, &dsc.vecJoin, "end")
}

// TestSkylineMatchesNLSchedules runs schedules kept as explicit graphs
// through checkSkylineSchedule: cases a byte seed of an earlier decoder
// found, whose random start graphs no base byte names.
func TestSkylineMatchesNLSchedules(t *testing.T) {
	g := func(text string) *graph.Graph {
		gs, err := graph.ReadDatabase(strings.NewReader("t # 0\n" + text))
		if err != nil {
			t.Fatal(err)
		}
		return gs[0]
	}
	query := func(text string) fuzzsched.Op { return fuzzsched.Op{Kind: fuzzsched.AddQuery, Query: g(text)} }
	remove := func(i int) fuzzsched.Op { return fuzzsched.Op{Kind: fuzzsched.RemoveQuery, Index: i} }
	step := func(sets ...graph.ChangeSet) fuzzsched.Op {
		return fuzzsched.Op{Kind: fuzzsched.Step, Changes: sets, Applied: sets}
	}
	for name, sc := range map[string]fuzzsched.Schedule{
		// A vertex that witnesses nothing drops through rows another vertex
		// witnesses for joinable pairs: those witnesses must stay.
		"non-witness drop": {Depth: 3, Streams: []*graph.Graph{
			g("v 0 2\nv 1 1\nv 2 1\nv 3 1\nv 4 0\nv 5 1\ne 0 1 1\ne 1 2 0\ne 1 5 0\ne 2 3 0\ne 3 4 0\ne 3 5 0"),
			g("v 0 2\nv 1 0\nv 2 1\nv 3 1\nv 4 0\nv 5 0\ne 0 1 1\ne 0 2 1\ne 1 2 1\ne 1 3 1\ne 1 5 1\ne 2 4 0\ne 2 5 0\ne 3 4 0"),
		}, Ops: []fuzzsched.Op{
			query("v 0 2\nv 1 1\nv 2 1\nv 3 1\ne 0 1 1\ne 1 2 0\ne 2 3 0"),
			query("v 0 2\nv 1 0\nv 2 1\nv 3 1\nv 4 0\nv 5 0\ne 0 1 1\ne 1 2 1\ne 1 5 1\ne 2 4 0\ne 2 5 0\ne 3 4 0"),
			step(graph.ChangeSet{graph.DeleteOp(3, 4)}, graph.ChangeSet{graph.InsertOp(0, 2, 7, 1, 0)}),
		}},
		// In one step a witness drops below its entry, clearing it, and a
		// later vertex's rise crosses the same entry and dominates it: the
		// queued pairs' probe must find a witness again.
		"drop then rise": {Depth: 3, Streams: []*graph.Graph{
			g("v 0 0\nv 1 1\nv 2 2\nv 3 1\nv 4 1\nv 5 2\ne 0 1 0\ne 0 3 1\ne 0 5 0\ne 1 2 1\ne 1 4 0\ne 2 4 1\ne 4 5 0"),
			g("v 0 2\nv 1 1\nv 2 1\nv 3 0\nv 4 2\nv 5 0\ne 0 1 0\ne 0 3 0\ne 1 2 1\ne 1 4 0\ne 2 3 0\ne 2 5 1\ne 3 5 0\ne 4 5 1"),
		}, Ops: []fuzzsched.Op{
			query("v 0 0\nv 1 1\nv 2 2\nv 5 2\ne 0 1 0\ne 0 5 0\ne 1 2 1"),
			query("v 1 1\nv 2 1\nv 3 0\ne 1 2 1\ne 2 3 0"),
			step(graph.ChangeSet{graph.DeleteOp(2, 1), graph.InsertOp(0, 0, 4, 1, 0)}, nil),
		}},
		// In one batch, a refuted pair's refuting vector gains a dominator
		// while the witness of another of its vectors retires.
		"refuter dominated, witness retired": {Depth: 1, Streams: []*graph.Graph{
			g("v 0 1\nv 1 1\nv 2 2\nv 3 2\nv 4 2\nv 5 0\ne 0 1 1\ne 0 2 1\ne 0 3 1\ne 1 4 0\ne 2 3 1\ne 4 5 0"),
			g("v 0 1\nv 1 0\nv 2 1\nv 3 0\nv 4 1\nv 5 1\ne 0 1 0\ne 0 2 0\ne 0 3 0\ne 0 5 0\ne 1 2 0\ne 1 5 1\ne 2 3 0\ne 3 4 1\ne 4 5 1"),
		}, Ops: []fuzzsched.Op{
			query("v 0 1\nv 2 2\nv 3 2\ne 0 2 1\ne 2 3 1"),
			query("v 0 1\nv 1 0\nv 2 1\nv 3 0\nv 4 1\nv 5 1\ne 0 1 0\ne 0 3 0\ne 1 2 0\ne 1 5 1\ne 3 4 1"),
			query("v 0 1\nv 1 1\nv 2 2\nv 3 2\nv 4 2\nv 5 0\ne 0 1 1\ne 0 2 1\ne 0 3 1\ne 1 4 0\ne 2 3 1\ne 4 5 0"),
			step(graph.ChangeSet{graph.DeleteOp(0, 1)}, nil),
			step(graph.ChangeSet{graph.DeleteOp(4, 5), graph.InsertOp(0, 1, 1, 1, 1), graph.InsertOp(3, 2, 7, 1, 0)}, nil),
		}},
		// Queries share maximal vectors: removals leave a shared entry, and
		// its witness, to the other owner, and free entries whose refs new
		// queries' different vectors take.
		"shared vectors": {Depth: 1, Streams: []*graph.Graph{
			g("v 0 1\nv 1 2\nv 2 0\nv 3 0\nv 4 2\nv 5 0\ne 0 1 1\ne 0 2 1\ne 0 4 0\ne 1 4 1\ne 1 5 1\ne 2 3 0\ne 3 4 1\ne 3 5 0\ne 4 5 1"),
			g("v 0 2\nv 1 1\nv 2 1\nv 3 2\nv 4 2\nv 5 1\ne 0 1 0\ne 0 2 0\ne 0 3 0\ne 1 2 0\ne 1 5 1\ne 2 4 1\ne 3 4 1\ne 3 5 0\ne 4 5 0"),
		}, Ops: []fuzzsched.Op{
			query("v 0 1\nv 1 2\nv 2 0\nv 3 0\nv 4 2\nv 5 0\ne 0 1 1\ne 0 2 1\ne 0 4 0\ne 1 4 1\ne 2 3 0\ne 3 4 1\ne 3 5 0\ne 4 5 1"),
			query("v 0 2\nv 1 1\nv 2 1\nv 3 2\nv 4 2\nv 5 1\ne 0 1 0\ne 0 2 0\ne 0 3 0\ne 1 2 0\ne 1 5 1\ne 2 4 1\ne 3 5 0"),
			query("v 0 1\nv 1 2\nv 2 0\nv 3 0\nv 4 2\nv 5 0\ne 0 1 1\ne 0 2 1\ne 0 4 0\ne 1 4 1\ne 1 5 1\ne 3 4 1\ne 3 5 0\ne 4 5 1"),
			query("v 0 1\nv 1 2\nv 2 0\nv 3 0\nv 4 2\nv 5 0\ne 0 1 1\ne 1 5 1\ne 2 3 0\ne 3 5 0\ne 4 5 1"),
			query("v 0 1\nv 1 2\nv 2 0\nv 3 0\ne 0 1 1\ne 0 2 1\ne 2 3 0"),
			remove(0),
			step(graph.ChangeSet{graph.DeleteOp(4, 1), graph.InsertOp(2, 0, 5, 0, 1)}, nil),
			query("v 2 1\nv 4 2\nv 5 1\ne 2 4 1\ne 4 5 0"),
			remove(2),
			step(graph.ChangeSet{graph.InsertOp(5, 0, 0, 1, 1)}, nil),
		}},
	} {
		t.Run(name, func(t *testing.T) { checkSkylineSchedule(t, sc) })
	}
}
