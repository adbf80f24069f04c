package join

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"nntstream/internal/core"
	"nntstream/internal/graph"
)

// parallelStrategies returns the batch-capable NPV filters under their
// constructor, so sequential and parallel twins can be built per strategy.
func parallelStrategies(depth int) map[string]func() core.Filter {
	return map[string]func() core.Filter{
		"NL":      func() core.Filter { return NewNL(depth) },
		"DSC":     func() core.Filter { return NewDSC(depth) },
		"Skyline": func() core.Filter { return NewSkyline(depth) },
	}
}

// randomBatch builds a valid multi-stream change batch against the current
// canonical graphs, mutating them in place as the new canonical state. It
// visits the streams in ascending order, so a seed fixes the batch.
func randomBatch(r *rand.Rand, graphs map[core.StreamID]*graph.Graph) map[core.StreamID]graph.ChangeSet {
	sids := make([]core.StreamID, 0, len(graphs))
	for sid := range graphs {
		sids = append(sids, sid)
	}
	slices.Sort(sids)
	batch := make(map[core.StreamID]graph.ChangeSet)
	for _, sid := range sids {
		cur := graphs[sid]
		if r.Float64() < 0.25 {
			continue // leave this stream unchanged at this timestamp
		}
		var cs graph.ChangeSet
		// fresh pins the label of a vertex first seen inside this change
		// set, so two inserts touching the same new vertex agree.
		fresh := make(map[graph.VertexID]graph.Label)
		labelOf := func(v graph.VertexID) graph.Label {
			if l, ok := cur.VertexLabel(v); ok {
				return l
			}
			if l, ok := fresh[v]; ok {
				return l
			}
			l := graph.Label(r.Intn(3))
			fresh[v] = l
			return l
		}
		for k := 0; k < 1+r.Intn(4); k++ {
			u := graph.VertexID(r.Intn(12))
			v := graph.VertexID(r.Intn(12))
			if u == v {
				continue
			}
			if cur.HasEdge(u, v) && r.Float64() < 0.5 {
				cs = append(cs, graph.DeleteOp(u, v))
			} else if !cur.HasEdge(u, v) {
				cs = append(cs, graph.InsertOp(u, labelOf(u), v, labelOf(v), graph.Label(r.Intn(2))))
			}
		}
		cs = cs.Normalize()
		if len(cs) == 0 {
			continue
		}
		next := cur.Clone()
		if err := cs.Apply(next); err != nil {
			continue // skip invalid batches; canonical state untouched
		}
		graphs[sid] = next
		batch[sid] = cs
	}
	return batch
}

// TestApplyAllErrors pins the batch path's error behavior: an unknown
// stream in the batch fails deterministically with the lowest offending
// StreamID, an empty batch is a no-op, and a batch in which one stream's
// change set fails still decides every pair the applied ops moved.
func TestApplyAllErrors(t *testing.T) {
	for name, mk := range parallelStrategies(2) {
		t.Run(name, func(t *testing.T) {
			f := mk().(core.BatchApplier)
			ff := f.(core.Filter)
			workload(t, ff)
			if err := f.ApplyAll(nil); err != nil {
				t.Fatalf("empty batch: %v", err)
			}
			err := f.ApplyAll(map[core.StreamID]graph.ChangeSet{
				7: {graph.DeleteOp(0, 1)},
				5: {graph.DeleteOp(0, 1)},
			})
			if err == nil {
				t.Fatal("unknown streams not rejected")
			}
			want := fmt.Sprintf("join: unknown stream %d", 5)
			if err.Error() != want {
				t.Fatalf("error = %q; want %q (lowest StreamID first)", err, want)
			}
			// The known streams' verdicts survive a failed batch untouched
			// only when the batch never validated; engines stage changes
			// first, so all we require here is that valid streams still
			// answer Candidates.
			if got := ff.Candidates(); len(got) == 0 {
				t.Fatal("candidates lost after rejected batch")
			}

			// A batch failing on one stream still decides every pair its
			// ops moved: stream 0's insert, and the insert stream 1 applied
			// before its relabelling one failed.
			f = mk().(core.BatchApplier)
			ff = f.(core.Filter)
			q := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1}, [][3]int{{0, 1, 0}})
			if err := ff.AddQuery(0, q); err != nil {
				t.Fatal(err)
			}
			for sid, g := range []*graph.Graph{
				buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 2}, [][3]int{{0, 1, 0}}),
				buildGraph(t, map[graph.VertexID]graph.Label{20: 2, 21: 2}, [][3]int{{20, 21, 0}}),
			} {
				if err := ff.AddStream(core.StreamID(sid), g); err != nil {
					t.Fatal(err)
				}
			}
			err = f.ApplyAll(map[core.StreamID]graph.ChangeSet{
				0: {graph.InsertOp(0, 0, 2, 1, 0)},
				1: {graph.InsertOp(30, 0, 31, 1, 0), graph.InsertOp(20, 5, 22, 0, 0)},
			})
			if err == nil {
				t.Fatal("relabelling insert not rejected")
			}
			if got, want := ff.Candidates(), []core.Pair{{Stream: 0, Query: 0}, {Stream: 1, Query: 0}}; !reflect.DeepEqual(got, want) {
				t.Fatalf("after the failed batch (%v): Candidates = %v; want %v", err, got, want)
			}
		})
	}
}

// TestSetWorkersBounds pins the pool-sizing contract: n <= 0 resolves to
// GOMAXPROCS, 1 stays sequential, and the configured bound is what the
// pool metrics report.
func TestSetWorkersBounds(t *testing.T) {
	f := NewNL(2)
	read := scrape(t, f)
	if got := read("nntstream_join_pool_workers"); got != 1 {
		t.Fatalf("default workers = %v; want 1 (sequential)", got)
	}
	f.SetWorkers(0)
	if got := read("nntstream_join_pool_workers"); got != float64(runtime.GOMAXPROCS(0)) {
		t.Fatalf("auto workers = %v; want GOMAXPROCS=%d", got, runtime.GOMAXPROCS(0))
	}
	f.SetWorkers(6)
	if got := read("nntstream_join_pool_workers"); got != 6 {
		t.Fatalf("explicit workers = %v; want 6", got)
	}
}

// TestPoolDispatchCounted drives a parallel batch and checks the pool
// telemetry moved — the worker fan-out actually engaged rather than
// falling back to the inline path.
func TestPoolDispatchCounted(t *testing.T) {
	f := NewNL(2)
	f.SetWorkers(4)
	read := scrape(t, f)
	workload(t, f)
	batch := map[core.StreamID]graph.ChangeSet{
		0: {graph.InsertOp(0, 0, 2, 2, 0)},
		1: {graph.DeleteOp(2, 0)},
	}
	if err := f.ApplyAll(batch); err != nil {
		t.Fatal(err)
	}
	if got := read("nntstream_join_pool_parallel_batches_total"); got == 0 {
		t.Fatal("no parallel batches dispatched")
	}
	if got := read("nntstream_join_pool_parallel_tasks_total"); got < 2 {
		t.Fatalf("parallel tasks = %v; want >= 2", got)
	}
	if got := read("nntstream_join_pool_max_batch_tasks"); got < 2 {
		t.Fatalf("max batch tasks = %v; want >= 2", got)
	}
}

// TestPoolTaskPanicReachesCaller: when every task of a two-worker batch
// panics, the panic reaches the caller's goroutine, where a deferred
// recover sees it, instead of ending the process from a spawned one. Each
// task waits until both pullers hold one, so the spawned one panics too.
func TestPoolTaskPanicReachesCaller(t *testing.T) {
	defer func() {
		if r := recover(); r != "task" {
			t.Fatalf("recovered %v; want the tasks' panic", r)
		}
	}()
	var both sync.WaitGroup
	both.Add(2)
	p := evalPool{workers: 2}
	p.run(8, func(int) { both.Done(); both.Wait(); panic("task") })
	t.Fatal("run returned")
}

// skylineMemo is one Skyline stream's witness memo in comparable form: per
// ref the need, the open flag and the witness's slot (-1 for none), and
// per query slot the refuting ref. Slots are issued in vertex and op
// order, so runs that replay the same ops give the same vertex the same
// slot. Only live entries' witnesses are kept; a freed entry's is never
// read again.
type skylineMemo struct {
	need   []int32
	open   []uint8
	wit    []int32
	refute []int32
}

// skylineMemos snapshots every stream's memo of f.
func skylineMemos(f *Skyline) map[core.StreamID]skylineMemo {
	out := make(map[core.StreamID]skylineMemo, len(f.streams))
	for sid, s := range f.streams {
		ss := s.vecStream.(*skyStream)
		m := skylineMemo{need: slices.Clone(ss.need), open: slices.Clone(ss.open), refute: slices.Clone(ss.refute)}
		for ref, w := range ss.wit {
			if len(f.ix.Entry(int32(ref)).Owners) == 0 {
				w = -1
			}
			m.wit = append(m.wit, w)
		}
		out[sid] = m
	}
	return out
}

// TestSkylineMemosIndependentOfWorkers: Skyline's step probes each
// stream's pairs inside that stream's task and settles them there in query
// order, touching no other stream's state, so the memo — need, open flags, refuting
// refs and which vertex witnesses each entry — must come out the same at
// one worker and at eight, after every step and every registration change.
func TestSkylineMemosIndependentOfWorkers(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		r := rand.New(rand.NewSource(70 + seed))
		graphs := make(map[core.StreamID]*graph.Graph)
		seq, par := NewSkyline(DefaultDepth), NewSkyline(DefaultDepth)
		par.SetWorkers(8)
		filters := []*Skyline{seq, par}
		var live []core.QueryID
		next := core.QueryID(0)
		addQuery := func() {
			g := graphs[core.StreamID(r.Intn(len(graphs)))]
			if g.EdgeCount() == 0 {
				return
			}
			q := randomSub(r, g)
			for _, f := range filters {
				if err := f.AddQuery(next, q); err != nil {
					t.Fatal(err)
				}
			}
			live = append(live, next)
			next++
		}
		for sid := core.StreamID(0); sid < 4; sid++ {
			graphs[sid] = randomConnected(r, 10, 3, 2)
		}
		for i := 0; i < 12; i++ {
			addQuery()
		}
		for sid, g := range graphs {
			for _, f := range filters {
				if err := f.AddStream(sid, g.Clone()); err != nil {
					t.Fatal(err)
				}
			}
		}
		for step := 0; step < 30; step++ {
			switch {
			case step%6 == 5 && len(live) > 0:
				i := r.Intn(len(live))
				for _, f := range filters {
					if err := f.RemoveQuery(live[i]); err != nil {
						t.Fatal(err)
					}
				}
				live = append(live[:i], live[i+1:]...)
				addQuery()
			default:
				batch := randomBatch(r, graphs)
				for _, f := range filters {
					if err := f.ApplyAll(batch); err != nil {
						t.Fatal(err)
					}
				}
			}
			if got, want := par.Candidates(), seq.Candidates(); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: candidates at 8 workers %v; at 1 worker %v", seed, step, got, want)
			}
			if got, want := skylineMemos(par), skylineMemos(seq); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: memos at 8 workers %+v; at 1 worker %+v", seed, step, got, want)
			}
		}
	}
}
