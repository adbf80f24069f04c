package core

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"nntstream/internal/graph"
	"nntstream/internal/obs"
	"nntstream/internal/wal"
)

// The engine contract. There is one engine type driving one filter; what
// varies is whether the filter takes whole timestamps (BatchApplier) or one
// stream at a time, so the suite runs over both kinds unless a test needs a
// filter of a particular kind. Each kind runs at two evaluation-pool widths,
// 1 and 3; the subtest label keeps its historical "shards=" key for the
// width so test IDs stay stable. A plain filter has no pool, so its two
// cells run the same engine.

// passthrough reports every pair as a candidate — sound (no false negatives)
// but maximally imprecise — and records how the engine drives it. The hooks
// let a test make it fail.
type passthrough struct {
	queries []QueryID
	streams []StreamID
	applies int          // Apply calls
	batches [][]StreamID // ApplyAll calls (batchPassthrough only)
	workers int          // SetWorkers bound (batchPassthrough only)

	addQueryErr  error                    // returned by AddQuery when set
	addStreamErr func(*graph.Graph) error // consulted by AddStream when set
	applyErr     func() error             // consulted by Apply and ApplyAll when set
}

func (p *passthrough) Name() string { return "passthrough" }
func (p *passthrough) AddQuery(id QueryID, _ *graph.Graph) error {
	if p.addQueryErr != nil {
		return p.addQueryErr
	}
	p.queries = append(p.queries, id)
	return nil
}
func (p *passthrough) RemoveQuery(id QueryID) error {
	for i, q := range p.queries {
		if q == id {
			p.queries = append(p.queries[:i], p.queries[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("passthrough: unknown query %d", id)
}
func (p *passthrough) AddStream(id StreamID, g0 *graph.Graph) error {
	if p.addStreamErr != nil {
		if err := p.addStreamErr(g0); err != nil {
			return err
		}
	}
	p.streams = append(p.streams, id)
	return nil
}
func (p *passthrough) Apply(StreamID, graph.ChangeSet) error {
	p.applies++
	if p.applyErr != nil {
		return p.applyErr()
	}
	return nil
}
func (p *passthrough) Candidates() []Pair {
	var out []Pair
	for _, s := range p.streams {
		for _, q := range p.queries {
			out = append(out, Pair{Stream: s, Query: q})
		}
	}
	return SortPairs(out)
}

// batchPassthrough is a passthrough that takes whole timestamps.
type batchPassthrough struct{ passthrough }

func (b *batchPassthrough) ApplyAll(changes map[StreamID]graph.ChangeSet) error {
	ids := make([]StreamID, 0, len(changes))
	for id := range changes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	b.batches = append(b.batches, ids)
	if b.applyErr != nil {
		return b.applyErr()
	}
	return nil
}
func (b *batchPassthrough) SetWorkers(n int) { b.workers = n }

var (
	_ BatchApplier   = (*batchPassthrough)(nil)
	_ ParallelFilter = (*batchPassthrough)(nil)
)

// engineKind names one cell of the contract matrix.
type engineKind struct {
	workers int // evaluation-pool width handed to a ParallelFilter
	batch   bool
}

// build returns an engine of this kind, its filter's pool sized as serve
// sizes it, and the passthrough recording what the filter saw.
func (k engineKind) build() (*Monitor, *passthrough) {
	if k.batch {
		b := &batchPassthrough{}
		b.SetWorkers(k.workers)
		return NewMonitor(b), &b.passthrough
	}
	p := &passthrough{}
	return NewMonitor(p), p
}

// forEachEngine runs fn as a subtest per cell of the matrix.
func forEachEngine(t *testing.T, fn func(t *testing.T, k engineKind)) {
	for _, k := range []engineKind{{1, false}, {3, false}, {1, true}, {3, true}} {
		t.Run(fmt.Sprintf("shards=%d/batch=%v", k.workers, k.batch), func(t *testing.T) { fn(t, k) })
	}
}

func buildGraph(t *testing.T, vlabels map[graph.VertexID]graph.Label, edges [][3]int) *graph.Graph {
	t.Helper()
	g := graph.New()
	for v, l := range vlabels {
		if err := g.AddVertex(v, l); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range edges {
		if err := g.AddEdge(graph.VertexID(e[0]), graph.VertexID(e[1]), graph.Label(e[2])); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// edgeAB is the graph everything below registers: one A-B edge.
func edgeAB(t *testing.T) *graph.Graph {
	return buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1}, [][3]int{{0, 1, 0}})
}

// populate registers the given number of edgeAB queries and streams.
func populate(t *testing.T, m *Monitor, queries, streams int) []StreamID {
	t.Helper()
	for i := 0; i < queries; i++ {
		if _, err := m.AddQuery(edgeAB(t)); err != nil {
			t.Fatal(err)
		}
	}
	var ids []StreamID
	for i := 0; i < streams; i++ {
		id, err := m.AddStream(edgeAB(t))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return ids
}

func pairsSorted(ps []Pair) bool {
	return sort.SliceIsSorted(ps, func(i, j int) bool {
		if ps[i].Stream != ps[j].Stream {
			return ps[i].Stream < ps[j].Stream
		}
		return ps[i].Query < ps[j].Query
	})
}

// TestEngineLifecycle walks registration, stepping and stats, and checks how
// each kind of filter is driven: a BatchApplier gets one ApplyAll per
// timestamp with exactly the changed streams and never a per-stream Apply;
// a plain filter gets one Apply per changed stream.
func TestEngineLifecycle(t *testing.T) {
	forEachEngine(t, func(t *testing.T, k engineKind) {
		m, seen := k.build()
		if m.FilterName() != "passthrough" {
			t.Fatalf("FilterName = %q", m.FilterName())
		}
		ids := populate(t, m, 1, 4)
		if m.QueryCount() != 1 || m.StreamCount() != 4 || m.Query(0) == nil {
			t.Fatalf("counts: %d queries, %d streams", m.QueryCount(), m.StreamCount())
		}
		if _, err := m.Step(ids[0], graph.ChangeSet{graph.DeleteOp(0, 1)}); err != nil {
			t.Fatal(err)
		}
		if m.StreamGraph(ids[0]).EdgeCount() != 0 {
			t.Fatal("canonical graph not advanced")
		}
		all := make(map[StreamID]graph.ChangeSet)
		for _, id := range ids {
			all[id] = graph.ChangeSet{graph.InsertOp(0, 0, 2, 2, 0)}
		}
		pairs, err := m.StepAll(all)
		if err != nil {
			t.Fatal(err)
		}
		if len(pairs) != 4 || !pairsSorted(pairs) {
			t.Fatalf("StepAll pairs = %v", pairs)
		}

		if k.batch {
			want := [][]StreamID{{ids[0]}, ids}
			if seen.applies != 0 || !reflect.DeepEqual(seen.batches, want) || seen.workers != k.workers {
				t.Fatalf("batch filter: %d Apply calls, batches %v, pool %d; want 0, %v, %d",
					seen.applies, seen.batches, seen.workers, want, k.workers)
			}
		} else if seen.applies != 5 || len(seen.batches) != 0 {
			t.Fatalf("plain filter: %d Apply calls, %d batches; want 5 and 0", seen.applies, len(seen.batches))
		}

		st := m.Stats()
		if st.Timestamps != 2 || st.TotalPairs != 8 || st.CandidatePairs != 8 || st.CandidateRatio() != 1 {
			t.Fatalf("stats = %+v", st)
		}
	})
}

// TestEngineSentinelErrorsAndLiveQueries: a stream the filter rejects
// consumes no stream ID, unknown streams and queries return their
// sentinels, and queries are added and removed while streams are live.
func TestEngineSentinelErrorsAndLiveQueries(t *testing.T) {
	f := &passthrough{addStreamErr: func(g *graph.Graph) error {
		if g.EdgeCount() == 0 {
			return errors.New("no edges")
		}
		return nil
	}}
	m := NewMonitor(f)
	populate(t, m, 1, 0)
	if _, err := m.AddStream(buildGraph(t, map[graph.VertexID]graph.Label{0: 0}, nil)); err == nil {
		t.Fatal("edgeless stream should be rejected")
	}
	if sid, err := m.AddStream(edgeAB(t)); err != nil || sid != 0 {
		t.Fatalf("AddStream after a rejected one = %d, %v; want 0 (a failed add must not leak an ID)", sid, err)
	}
	if _, err := m.StepAll(map[StreamID]graph.ChangeSet{7: nil}); !errors.Is(err, ErrUnknownStream) {
		t.Fatalf("StepAll error = %v; want ErrUnknownStream", err)
	}
	id, err := m.AddQuery(edgeAB(t))
	if err != nil || id != 1 {
		t.Fatalf("AddQuery while a stream is live = %d, %v; want 1", id, err)
	}
	if err := m.RemoveQuery(9); !errors.Is(err, ErrUnknownQuery) {
		t.Fatalf("RemoveQuery(9) error = %v; want ErrUnknownQuery", err)
	}
	if err := m.RemoveQuery(0); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.queries, []QueryID{1}) {
		t.Fatalf("filter holds queries %v after removal; want [1]", f.queries)
	}
	if m.QueryCount() != 1 || m.Query(0) != nil {
		t.Fatal("removed query still registered")
	}
}

// TestEngineAddQueryRollback: a query the filter rejects allocates no ID and
// registers nothing.
func TestEngineAddQueryRollback(t *testing.T) {
	f := &passthrough{}
	m := NewMonitor(f)
	f.addQueryErr = errors.New("flaky")
	if _, err := m.AddQuery(edgeAB(t)); err == nil {
		t.Fatal("AddQuery should fail when the filter rejects it")
	}
	if m.QueryCount() != 0 || m.Query(0) != nil {
		t.Fatalf("engine holds %d queries after the failed AddQuery", m.QueryCount())
	}
	f.addQueryErr = nil
	if id, err := m.AddQuery(edgeAB(t)); err != nil || id != 0 {
		t.Fatalf("AddQuery after the fault cleared = %d, %v; want 0 (a failed add must not leak an ID)", id, err)
	}
}

// withIsolated is edgeAB plus vertex 2 (label 2) with no edges.
func withIsolated(t *testing.T) *graph.Graph {
	return buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1, 2: 2}, [][3]int{{0, 1, 0}})
}

// cloneStreams copies every canonical graph, the pre-step state a rejected
// batch must leave behind.
func cloneStreams(m *Monitor, ids []StreamID) map[StreamID]*graph.Graph {
	out := make(map[StreamID]*graph.Graph, len(ids))
	for _, id := range ids {
		out[id] = m.StreamGraph(id).Clone()
	}
	return out
}

// requireStreamsEqual fails unless every canonical graph equals its copy.
func requireStreamsEqual(t *testing.T, what string, m *Monitor, before map[StreamID]*graph.Graph) {
	t.Helper()
	for id, want := range before {
		if got := m.StreamGraph(id); !got.Equal(want) {
			t.Fatalf("%s: stream %d canonical graph changed:\n got %v\nwant %v", what, id, got, want)
		}
	}
}

// TestEngineStepAllAtomic: a batch with one valid and one invalid change set
// (or one unknown stream) is rejected as a whole — the filter sees no
// operation, every canonical graph is Equal to its pre-step state, no
// timestamp is counted. Streams are staged in ascending order, so stream 0's
// valid set is applied before stream 1's fails and its revert is exercised
// too; each invalid set also mutates its own graph before the failing op.
func TestEngineStepAllAtomic(t *testing.T) {
	type batch = map[StreamID]graph.ChangeSet
	forEachEngine(t, func(t *testing.T, k engineKind) {
		m, seen := k.build()
		populate(t, m, 1, 0)
		var ids []StreamID
		for _, g := range []*graph.Graph{withIsolated(t), edgeAB(t)} {
			id, err := m.AddStream(g)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		s0, s1 := ids[0], ids[1]
		valid := graph.ChangeSet{graph.InsertOp(0, 0, 3, 1, 0)}
		// Vertex 0 has label 0, not 9.
		relabel := graph.ChangeSet{graph.InsertOp(0, 9, 5, 2, 0)}
		for _, c := range []struct {
			name  string
			batch batch
		}{
			{"label conflict", batch{s0: valid, s1: relabel}},
			{"unknown stream", batch{s0: valid, 99: nil}},
			// Vertex 7 is created before vertex 1's label (1, not 9) fails.
			{"new endpoint then relabel", batch{s0: valid, s1: {graph.InsertOp(7, 0, 1, 9, 0)}}},
			// The deletion retires both endpoints, then the self-loop fails.
			{"retire then fail", batch{s0: valid, s1: {graph.DeleteOp(0, 1), graph.InsertOp(4, 0, 4, 0, 0)}}},
			// The isolated vertex gains an edge the revert takes back again;
			// the vertex itself must stay.
			{"isolated vertex gains an edge", batch{s0: {graph.InsertOp(2, 2, 3, 1, 0)}, s1: relabel}},
		} {
			before := cloneStreams(m, ids)
			if _, err := m.StepAll(c.batch); err == nil {
				t.Fatalf("%s: StepAll must fail", c.name)
			}
			if seen.applies != 0 || len(seen.batches) != 0 {
				t.Fatalf("%s: filter saw %d Apply and %d ApplyAll calls despite the rejection", c.name, seen.applies, len(seen.batches))
			}
			requireStreamsEqual(t, c.name, m, before)
			if st := m.Stats(); st.Timestamps != 0 {
				t.Fatalf("%s: rejected batch counted as a timestamp: %+v", c.name, st)
			}
		}
		// The valid half on its own still works afterwards.
		if _, err := m.StepAll(batch{s0: valid}); err != nil {
			t.Fatalf("valid step after rejected batches: %v", err)
		}
		if g := m.StreamGraph(s0); g.EdgeCount() != 2 || !g.HasVertex(2) {
			t.Fatalf("valid step not applied: %v", g)
		}
	})
}

// TestEngineStepAllReportsLowestFailingStream: staging runs in ascending
// stream order, so of several invalid change sets the lowest stream's is the
// one reported, whatever the map's iteration order; of several unknown
// streams, the lowest is reported, before any set is applied.
func TestEngineStepAllReportsLowestFailingStream(t *testing.T) {
	m := NewMonitor(&passthrough{})
	ids := populate(t, m, 1, 4)
	bad := graph.ChangeSet{graph.InsertOp(0, 9, 5, 2, 0)}
	before := cloneStreams(m, ids)
	for i := 0; i < 20; i++ {
		_, err := m.StepAll(map[StreamID]graph.ChangeSet{ids[3]: bad, ids[1]: bad, ids[2]: bad, ids[0]: nil})
		if want := fmt.Sprintf("stream %d:", ids[1]); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("error %v; want the one for %q", err, want)
		}
		_, err = m.StepAll(map[StreamID]graph.ChangeSet{ids[0]: bad, 98: nil, 97: nil})
		if !errors.Is(err, ErrUnknownStream) || !strings.HasSuffix(err.Error(), " 97") {
			t.Fatalf("error %v; want ErrUnknownStream for stream 97", err)
		}
	}
	requireStreamsEqual(t, "rejected batches", m, before)
}

// TestEngineFilterErrorSwapsNothing: a filter that fails mid-step — a plain
// filter's Apply on the second stream, a batch filter's ApplyAll — leaves
// every canonical graph Equal to its pre-step state: the engine reverts the
// change set it staged on each of them. One stream starts with an isolated
// vertex that the failed step connected; the revert disconnects it again and
// must keep the vertex.
func TestEngineFilterErrorSwapsNothing(t *testing.T) {
	forEachEngine(t, func(t *testing.T, k engineKind) {
		m, seen := k.build()
		calls, failAt := 0, 2
		if k.batch {
			failAt = 1
		}
		seen.applyErr = func() error {
			if calls++; calls == failAt {
				return errors.New("filter fails mid-step")
			}
			return nil
		}
		ids := populate(t, m, 1, 2)
		lone, err := m.AddStream(withIsolated(t))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, lone)
		changes := map[StreamID]graph.ChangeSet{lone: {graph.InsertOp(2, 2, 3, 2, 0)}}
		for _, id := range ids[:2] {
			changes[id] = graph.ChangeSet{graph.InsertOp(0, 0, 2, 2, 0)}
		}
		before := cloneStreams(m, ids)
		if _, err := m.StepAll(changes); err == nil {
			t.Fatal("StepAll must report the filter error")
		}
		requireStreamsEqual(t, "failed step", m, before)
		if st := m.Stats(); st.Timestamps != 0 {
			t.Fatalf("failed step counted as a timestamp: %+v", st)
		}
		seen.applyErr = nil
		if _, err := m.StepAll(changes); err != nil {
			t.Fatalf("step after the fault cleared: %v", err)
		}
		for _, id := range ids {
			if got := m.StreamGraph(id).EdgeCount(); got != 2 {
				t.Fatalf("stream %d holds %d edges after the retried step; want 2", id, got)
			}
		}
	})
}

// TestEngineWorkers pins the pool-sizing plumbing: OpenDurableEngine hands
// DurableOptions.Workers to a ParallelFilter unchanged (0 leaves the
// GOMAXPROCS default to the filter), and NewMonitor leaves a caller-built
// filter alone.
func TestEngineWorkers(t *testing.T) {
	for _, w := range []int{5, 0} {
		f := &batchPassthrough{passthrough{workers: -1}}
		d, err := OpenDurableEngine(t.TempDir(), func() Filter { return f }, DurableOptions{Workers: w, Fsync: wal.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		if f.workers != w {
			t.Fatalf("Workers: %d reached the filter as SetWorkers(%d)", w, f.workers)
		}
		if err := d.Crash(); err != nil {
			t.Fatal(err)
		}
	}
	own := &batchPassthrough{passthrough{workers: 7}}
	if NewMonitor(own); own.workers != 7 {
		t.Fatalf("NewMonitor changed the filter's bound to %d", own.workers)
	}
}

// TestEngineCollectSorted: StepAll and Candidates hand back the filter's own
// pairs, already sorted by (StreamID, QueryID) under the Filter contract,
// without re-sorting or copying them into a different order.
func TestEngineCollectSorted(t *testing.T) {
	f := &batchPassthrough{}
	f.SetWorkers(4)
	m := NewMonitor(f)
	ids := populate(t, m, 3, 7)
	pairs, err := m.StepAll(map[StreamID]graph.ChangeSet{ids[0]: nil, ids[4]: nil})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 21 || !pairsSorted(pairs) || !reflect.DeepEqual(pairs, f.Candidates()) {
		t.Fatalf("StepAll output: %d pairs, sorted=%v: %v", len(pairs), pairsSorted(pairs), pairs)
	}
	if got := m.Candidates(); !reflect.DeepEqual(got, pairs) {
		t.Fatalf("Candidates = %v; want %v", got, pairs)
	}
}

// TestEngineConcurrentStepAndReads holds the concurrent-use claim to the race
// detector — one writer stepping, four readers on every read path — and
// checks the instruments along the way.
func TestEngineConcurrentStepAndReads(t *testing.T) {
	forEachEngine(t, func(t *testing.T, k engineKind) {
		m, _ := k.build()
		reg := obs.NewRegistry()
		em := NewEngineMetrics(reg)
		m.SetMetrics(em)
		populate(t, m, 1, 2)

		const rounds = 50
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				cs := map[StreamID]graph.ChangeSet{
					0: {graph.InsertOp(100, 0, graph.VertexID(101+i), 1, 0)},
					1: {graph.InsertOp(200, 0, graph.VertexID(201+i), 1, 0)},
				}
				if _, err := m.StepAll(cs); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					_ = m.Candidates()
					_ = m.Stats()
					_ = m.ExactPairs()
					if err := reg.WritePrometheus(io.Discard); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()

		if st := m.Stats(); st.Timestamps != rounds {
			t.Fatalf("timestamps = %d; want %d", st.Timestamps, rounds)
		}
		if em.ApplySeconds.Count() != rounds || em.CollectSeconds.Count() != rounds {
			t.Fatalf("metrics not recorded: apply=%d collect=%d",
				em.ApplySeconds.Count(), em.CollectSeconds.Count())
		}
		// passthrough reports every pair, so the ratio is 1.
		if em.CandidateRatio.Value() != 1 || em.CandidatePairs.Value() != 2*rounds {
			t.Fatalf("ratio=%v pairs=%d", em.CandidateRatio.Value(), em.CandidatePairs.Value())
		}
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(b.String(), "nntstream_engine_apply_seconds_bucket") {
			t.Fatalf("exposition missing apply histogram:\n%s", b.String())
		}
	})
}

func TestEngineExactAndVerification(t *testing.T) {
	m := NewMonitor(&passthrough{})
	// Query: A-B. Stream 0 contains it, stream 1 does not.
	populate(t, m, 1, 1)
	other := buildGraph(t, map[graph.VertexID]graph.Label{0: 2, 1: 2}, [][3]int{{0, 1, 0}})
	if _, err := m.AddStream(other); err != nil {
		t.Fatal(err)
	}
	if exact := m.ExactPairs(); !reflect.DeepEqual(exact, []Pair{{Stream: 0, Query: 0}}) {
		t.Fatalf("ExactPairs = %v", exact)
	}
	if missed := m.VerifyNoFalseNegatives(); len(missed) != 0 {
		t.Fatalf("passthrough cannot miss pairs: %v", missed)
	}
	if fps := m.FalsePositives(); !reflect.DeepEqual(fps, []Pair{{Stream: 1, Query: 0}}) {
		t.Fatalf("FalsePositives = %v", fps)
	}
}

func TestSortPairs(t *testing.T) {
	ps := []Pair{{2, 1}, {1, 2}, {1, 1}, {2, 0}}
	SortPairs(ps)
	if want := []Pair{{1, 1}, {1, 2}, {2, 0}, {2, 1}}; !reflect.DeepEqual(ps, want) {
		t.Fatalf("SortPairs = %v", ps)
	}
	if (Pair{Stream: 3, Query: 4}).String() != "(G3,Q4)" {
		t.Fatal("Pair.String format changed")
	}
}

func TestStatsZeroDivision(t *testing.T) {
	var s Stats
	if s.AvgTimePerTimestamp() != 0 || s.CandidateRatio() != 0 {
		t.Fatal("zero stats should not divide by zero")
	}
}

// stepsPassthrough is a passthrough that takes whole batches of steps,
// records how many steps each call got, and panics once when panicNext is
// set.
type stepsPassthrough struct {
	passthrough
	calls     []int
	panicNext bool
}

func (s *stepsPassthrough) ApplySteps(steps []map[StreamID]graph.ChangeSet, pairs []int) (int, error) {
	s.calls = append(s.calls, len(steps))
	if s.panicNext {
		s.panicNext = false
		panic("filter panics mid-batch")
	}
	for k := range pairs {
		pairs[k] = len(s.streams) * len(s.queries)
	}
	return len(steps), nil
}

// TestEngineBatchAfterPanicIsFresh: a StepApplier that panics inside a
// batch leaves no staged step behind, so the next batch hands the filter
// only its own steps.
func TestEngineBatchAfterPanicIsFresh(t *testing.T) {
	f := &stepsPassthrough{panicNext: true}
	m := NewMonitor(f)
	ids := populate(t, m, 1, 1)
	step := func(u graph.VertexID) map[StreamID]graph.ChangeSet {
		return map[StreamID]graph.ChangeSet{ids[0]: {graph.InsertOp(u, 0, u+1, 1, 0)}}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the filter's panic did not reach the caller")
			}
		}()
		_, _, _ = m.StepAllBatch([]map[StreamID]graph.ChangeSet{step(10), step(20)})
	}()
	applied, pairs, err := m.StepAllBatch([]map[StreamID]graph.ChangeSet{step(30)})
	if err != nil || applied != 1 || pairs != 1 {
		t.Fatalf("batch after the panic = (%d, %d, %v); want (1, 1, nil)", applied, pairs, err)
	}
	if want := []int{2, 1}; !slices.Equal(f.calls, want) {
		t.Fatalf("the filter got batches of %v steps; want %v", f.calls, want)
	}
}
