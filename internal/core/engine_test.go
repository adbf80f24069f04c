package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"nntstream/internal/graph"
	"nntstream/internal/obs"
)

// The engine contract. There is one engine type; what varies is the shard
// count and whether its filter takes whole timestamps (BatchApplier) or one
// stream at a time, so the suite runs over shards ∈ {1, 3} × those two kinds
// unless a test needs a filter of a particular kind.

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
	applyErr     func() error             // consulted by Apply when set
	reversed     bool                     // Candidates in descending order
}

func (p *passthrough) Name() string { return "passthrough" }
func (p *passthrough) AddQuery(id QueryID, _ *graph.Graph) error {
	if p.addQueryErr != nil {
		return p.addQueryErr
	}
	p.queries = append(p.queries, id)
	return nil
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
	SortPairs(out)
	if p.reversed {
		// The worst case for a merge that relies on pre-sorted inputs.
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
	}
	return out
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
	return nil
}
func (b *batchPassthrough) SetWorkers(n int) { b.workers = n }

var (
	_ BatchApplier   = (*batchPassthrough)(nil)
	_ ParallelFilter = (*batchPassthrough)(nil)
)

// dynamicPassthrough extends passthrough with query removal.
type dynamicPassthrough struct{ passthrough }

func (d *dynamicPassthrough) RemoveQuery(id QueryID) error {
	for i, q := range d.queries {
		if q == id {
			d.queries = append(d.queries[:i], d.queries[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("passthrough: unknown query %d", id)
}

// engineKind names one cell of the contract matrix.
type engineKind struct {
	shards int
	batch  bool
}

// build returns an engine of this kind (two evaluation workers per shard)
// and, per shard, the passthrough recording what that shard's filter saw.
func (k engineKind) build() (*Monitor, []*passthrough) {
	var seen []*passthrough
	m := NewShardedMonitor(func() Filter {
		if k.batch {
			b := &batchPassthrough{}
			seen = append(seen, &b.passthrough)
			return b
		}
		p := &passthrough{}
		seen = append(seen, p)
		return p
	}, k.shards, 2)
	return m, seen
}

// forEachEngine runs fn as a subtest per cell of the matrix.
func forEachEngine(t *testing.T, fn func(t *testing.T, k engineKind)) {
	for _, k := range []engineKind{{1, false}, {3, false}, {1, true}, {3, true}} {
		t.Run(fmt.Sprintf("shards=%d/batch=%v", k.shards, k.batch), func(t *testing.T) { fn(t, k) })
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
// each kind of filter is driven: a BatchApplier gets one ApplyAll per shard
// with exactly that shard's streams and never a per-stream Apply; a plain
// filter gets one Apply per changed stream.
func TestEngineLifecycle(t *testing.T) {
	forEachEngine(t, func(t *testing.T, k engineKind) {
		m, seen := k.build()
		if m.Shards() != k.shards || m.FilterName() != "passthrough" {
			t.Fatalf("Shards = %d, FilterName = %q", m.Shards(), m.FilterName())
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

		applies, batched := 0, 0
		for shard, p := range seen {
			applies += p.applies
			for _, b := range p.batches {
				batched += len(b)
				for _, id := range b {
					if m.shardOf[id] != shard {
						t.Fatalf("shard %d was handed stream %d of shard %d", shard, id, m.shardOf[id])
					}
				}
			}
			if k.batch && len(p.batches) > 2 {
				t.Fatalf("shard %d got %d batches for 2 timestamps", shard, len(p.batches))
			}
		}
		if k.batch && (applies != 0 || batched != 5) {
			t.Fatalf("batch filter: %d Apply calls, %d batched streams; want 0 and 5", applies, batched)
		}
		if !k.batch && (applies != 5 || batched != 0) {
			t.Fatalf("plain filter: %d Apply calls, %d batched streams; want 5 and 0", applies, batched)
		}

		st := m.Stats()
		if st.Timestamps != 2 || st.TotalPairs != 8 || st.CandidatePairs != 8 || st.CandidateRatio() != 1 {
			t.Fatalf("stats = %+v", st)
		}
		m.ResetStats()
		if m.Stats().Timestamps != 0 {
			t.Fatal("ResetStats did not reset")
		}
	})
}

// TestEngineSentinelErrorsAndSealRule: a static filter's query set is sealed
// by the first stream and never shrinks; a DynamicFilter's is neither.
func TestEngineSentinelErrorsAndSealRule(t *testing.T) {
	for _, shards := range []int{1, 3} {
		static := NewShardedMonitor(func() Filter { return &passthrough{} }, shards)
		populate(t, static, 1, 1)
		if _, err := static.AddQuery(edgeAB(t)); !errors.Is(err, ErrSealed) {
			t.Fatalf("shards=%d: post-stream AddQuery error = %v; want ErrSealed", shards, err)
		}
		if _, err := static.StepAll(map[StreamID]graph.ChangeSet{7: nil}); !errors.Is(err, ErrUnknownStream) {
			t.Fatalf("shards=%d: StepAll error = %v; want ErrUnknownStream", shards, err)
		}
		if err := static.RemoveQuery(0); !errors.Is(err, ErrUnsupported) {
			t.Fatalf("shards=%d: RemoveQuery error = %v; want ErrUnsupported", shards, err)
		}

		var filters []*dynamicPassthrough
		dynamic := NewShardedMonitor(func() Filter {
			filters = append(filters, &dynamicPassthrough{})
			return filters[len(filters)-1]
		}, shards)
		populate(t, dynamic, 1, 1)
		id, err := dynamic.AddQuery(edgeAB(t))
		if err != nil || id != 1 {
			t.Fatalf("shards=%d: post-stream AddQuery on a dynamic filter = %d, %v", shards, id, err)
		}
		if err := dynamic.RemoveQuery(9); !errors.Is(err, ErrUnknownQuery) {
			t.Fatalf("shards=%d: RemoveQuery(9) error = %v; want ErrUnknownQuery", shards, err)
		}
		if err := dynamic.RemoveQuery(0); err != nil {
			t.Fatal(err)
		}
		for i, f := range filters {
			if len(f.queries) != 1 || f.queries[0] != 1 {
				t.Fatalf("shards=%d: shard %d holds queries %v after removal; want [1]", shards, i, f.queries)
			}
		}
		if dynamic.QueryCount() != 1 || dynamic.Query(0) != nil {
			t.Fatalf("shards=%d: removed query still registered", shards)
		}
	}
}

// TestEngineAddQueryRollback: when the last shard rejects a query, the shards
// that already accepted it roll it back, and the query ID is not consumed.
func TestEngineAddQueryRollback(t *testing.T) {
	for _, shards := range []int{1, 3} {
		var filters []*dynamicPassthrough
		m := NewShardedMonitor(func() Filter {
			filters = append(filters, &dynamicPassthrough{})
			return filters[len(filters)-1]
		}, shards)
		filters[shards-1].addQueryErr = errors.New("flaky")
		if _, err := m.AddQuery(edgeAB(t)); err == nil {
			t.Fatalf("shards=%d: AddQuery should fail when a shard rejects it", shards)
		}
		for i, f := range filters {
			if len(f.queries) != 0 {
				t.Fatalf("shards=%d: shard %d still holds %v after the failed AddQuery", shards, i, f.queries)
			}
		}
		if m.QueryCount() != 0 {
			t.Fatalf("shards=%d: engine holds %d queries after the failed AddQuery", shards, m.QueryCount())
		}
		filters[shards-1].addQueryErr = nil
		id, err := m.AddQuery(edgeAB(t))
		if err != nil || id != 0 {
			t.Fatalf("shards=%d: AddQuery after the fault cleared = %d, %v; want 0 (a failed add must not leak an ID)", shards, id, err)
		}
		for i, f := range filters {
			if len(f.queries) != 1 {
				t.Fatalf("shards=%d: shard %d missing the query", shards, i)
			}
		}
	}
}

// TestEngineLeastLoadedPlacement: streams go to the shard with the fewest
// streams, ties to the lowest index — round-robin as long as nothing fails —
// and a rejected stream consumes neither an ID nor load.
func TestEngineLeastLoadedPlacement(t *testing.T) {
	for _, shards := range []int{1, 3} {
		m := NewShardedMonitor(func() Filter {
			return &passthrough{addStreamErr: func(g *graph.Graph) error {
				if g.EdgeCount() == 0 {
					return errors.New("no edges")
				}
				return nil
			}}
		}, shards)
		edgeless := buildGraph(t, map[graph.VertexID]graph.Label{0: 0}, nil)
		wantLoads := make([]int, shards)
		for want := StreamID(0); want < 5; want++ {
			if want == 1 {
				if _, err := m.AddStream(edgeless); err == nil {
					t.Fatal("edgeless stream should be rejected")
				}
			}
			id, err := m.AddStream(edgeAB(t))
			if err != nil || id != want {
				t.Fatalf("shards=%d: AddStream = %d, %v; want contiguous ID %d", shards, id, err, want)
			}
			if m.shardOf[id] != int(id)%shards {
				t.Fatalf("shards=%d: stream %d on shard %d; want %d", shards, id, m.shardOf[id], int(id)%shards)
			}
			wantLoads[int(id)%shards]++
		}
		if !reflect.DeepEqual(m.loads, wantLoads) {
			t.Fatalf("shards=%d: loads = %v; want %v", shards, m.loads, wantLoads)
		}
	}
}

// TestEngineStepAllAtomic: a batch with one valid and one invalid change set
// (or one unknown stream) is rejected as a whole — no filter sees an
// operation, every canonical graph is unchanged, no timestamp is counted.
func TestEngineStepAllAtomic(t *testing.T) {
	forEachEngine(t, func(t *testing.T, k engineKind) {
		m, seen := k.build()
		ids := populate(t, m, 1, 2)
		valid := graph.ChangeSet{graph.InsertOp(0, 0, 2, 1, 0)}
		for name, bad := range map[string]map[StreamID]graph.ChangeSet{
			// Vertex 0 already has label 0, not 9.
			"label conflict": {ids[0]: valid, ids[1]: {graph.InsertOp(0, 9, 5, 2, 0)}},
			"unknown stream": {ids[0]: valid, 99: nil},
		} {
			if _, err := m.StepAll(bad); err == nil {
				t.Fatalf("%s: StepAll must fail", name)
			}
			for i, p := range seen {
				if p.applies != 0 || len(p.batches) != 0 {
					t.Fatalf("%s: shard %d saw %d Apply and %d ApplyAll calls despite the rejection", name, i, p.applies, len(p.batches))
				}
			}
			for _, id := range ids {
				if got := m.StreamGraph(id).EdgeCount(); got != 1 {
					t.Fatalf("%s: stream %d canonical graph mutated: %d edges", name, id, got)
				}
			}
			if st := m.Stats(); st.Timestamps != 0 {
				t.Fatalf("%s: rejected batch counted as a timestamp: %+v", name, st)
			}
		}
		// The valid half on its own still works afterwards.
		if _, err := m.StepAll(map[StreamID]graph.ChangeSet{ids[0]: valid}); err != nil {
			t.Fatalf("valid step after rejected batches: %v", err)
		}
		if got := m.StreamGraph(ids[0]).EdgeCount(); got != 2 {
			t.Fatalf("valid step not applied: %d edges", got)
		}
	})
}

// TestEngineFilterErrorSwapsNothing: a plain filter whose Apply fails on the
// second stream of a timestamp must not leave the first stream's canonical
// graph advanced — staged graphs are swapped in only after every shard
// applied.
func TestEngineFilterErrorSwapsNothing(t *testing.T) {
	for _, shards := range []int{1, 3} {
		var calls atomic.Int64
		m := NewShardedMonitor(func() Filter {
			return &passthrough{applyErr: func() error {
				if calls.Add(1) == 2 {
					return errors.New("second apply fails")
				}
				return nil
			}}
		}, shards)
		ids := populate(t, m, 1, 3)
		changes := make(map[StreamID]graph.ChangeSet)
		for _, id := range ids {
			changes[id] = graph.ChangeSet{graph.InsertOp(0, 0, 2, 2, 0)}
		}
		if _, err := m.StepAll(changes); err == nil {
			t.Fatalf("shards=%d: StepAll must report the filter error", shards)
		}
		for _, id := range ids {
			if got := m.StreamGraph(id).EdgeCount(); got != 1 {
				t.Fatalf("shards=%d: stream %d canonical graph advanced to %d edges by a failed step", shards, id, got)
			}
		}
		if st := m.Stats(); st.Timestamps != 0 {
			t.Fatalf("shards=%d: failed step counted as a timestamp: %+v", shards, st)
		}
	}
}

// TestEngineWorkers pins the pool-sizing plumbing: an explicit bound reaches
// every shard's filter, the default splits GOMAXPROCS across the shards, and
// NewMonitor leaves a caller-built filter alone.
func TestEngineWorkers(t *testing.T) {
	var made []*batchPassthrough
	factory := func() Filter {
		made = append(made, &batchPassthrough{})
		return made[len(made)-1]
	}
	if m := NewShardedMonitor(factory, 2, 5); m.Workers() != 5 {
		t.Fatalf("Workers() = %d; want 5", m.Workers())
	}
	want := max(1, runtime.GOMAXPROCS(0)/2)
	if m := NewShardedMonitor(factory, 2); m.Workers() != want {
		t.Fatalf("default Workers() = %d; want GOMAXPROCS/shards = %d", m.Workers(), want)
	}
	for i, f := range made {
		if w := []int{5, 5, want, want}[i]; f.workers != w {
			t.Fatalf("filter %d got SetWorkers(%d); want %d", i, f.workers, w)
		}
	}
	if m := NewShardedMonitor(factory, 0); m.Shards() != runtime.GOMAXPROCS(0) {
		t.Fatalf("Shards() = %d; want GOMAXPROCS", m.Shards())
	}
	own := &batchPassthrough{passthrough{workers: 7}}
	if m := NewMonitor(own); m.Workers() != 0 || m.Shards() != 1 || own.workers != 7 {
		t.Fatalf("NewMonitor: Workers() = %d, Shards() = %d, filter bound %d", m.Workers(), m.Shards(), own.workers)
	}
}

// TestEngineCollectSorted is the collect-ordering contract of a multi-shard
// engine: even when every shard emits its candidates in reverse order and
// the shards run concurrently, the merged output of StepAll and Candidates
// is sorted by (StreamID, QueryID).
func TestEngineCollectSorted(t *testing.T) {
	m := NewShardedMonitor(func() Filter { return &batchPassthrough{passthrough{reversed: true}} }, 3, 4)
	ids := populate(t, m, 3, 7)
	pairs, err := m.StepAll(map[StreamID]graph.ChangeSet{ids[0]: nil, ids[4]: nil})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 21 || !pairsSorted(pairs) {
		t.Fatalf("StepAll output: %d pairs, sorted=%v: %v", len(pairs), pairsSorted(pairs), pairs)
	}
	if got := m.Candidates(); !reflect.DeepEqual(got, pairs) {
		t.Fatalf("Candidates = %v; want %v", got, pairs)
	}
}

// TestEngineConcurrentStepAndReads holds the concurrent-use claim to the race
// detector — one writer stepping, four readers on every read path — and
// checks the instruments and shard gauges along the way.
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
					_ = m.StreamGraph(0).EdgeCount()
					_ = obs.Gather(m)
				}
			}()
		}
		wg.Wait()

		if st := m.Stats(); st.Timestamps != rounds {
			t.Fatalf("timestamps = %d; want %d", st.Timestamps, rounds)
		}
		if em.Timestamps.Value() != rounds || em.ApplySeconds.Count() != rounds || em.CollectSeconds.Count() != rounds {
			t.Fatalf("metrics not recorded: ts=%d apply=%d collect=%d",
				em.Timestamps.Value(), em.ApplySeconds.Count(), em.CollectSeconds.Count())
		}
		// passthrough reports every pair, so the ratio is 1.
		if em.CandidateRatio.Value() != 1 || em.CandidatePairs.Value() != 2*rounds {
			t.Fatalf("ratio=%v pairs=%d", em.CandidateRatio.Value(), em.CandidatePairs.Value())
		}
		samples := obs.Gather(m)
		streamsMax := 2.0 // both streams on the only shard
		if k.shards > 1 {
			streamsMax = 1
		}
		if samples["nntstream_engine_shards"] != float64(k.shards) || samples["nntstream_engine_shard_workers"] != 2 ||
			samples["nntstream_engine_shard_streams_max"] != streamsMax {
			t.Fatalf("shard gauges = %v", samples)
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
	for _, shards := range []int{1, 3} {
		m := NewShardedMonitor(func() Filter { return &passthrough{} }, shards)
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
}

// batchLabelFilter is labelFilter behind the batch entry point.
type batchLabelFilter struct{ *labelFilter }

func (f batchLabelFilter) ApplyAll(changes map[StreamID]graph.ChangeSet) error {
	for id, cs := range changes {
		if err := f.Apply(id, cs); err != nil {
			return err
		}
	}
	return nil
}

// TestShardsMatchOneShardRandomized is the sharding-is-exact contract: fed
// the same randomized schedule of query churn, stream registrations and
// timestamps (some invalid), a three-shard engine and a one-shard engine
// accept and reject the same operations, report the same candidates after
// every one, and end with the same canonical graphs and Stats — for both
// kinds of filter.
func TestShardsMatchOneShardRandomized(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		factory := func() Filter { return newLabelFilter() }
		if seed%2 == 1 {
			factory = func() Filter { return batchLabelFilter{newLabelFilter()} }
		}
		one, three := NewShardedMonitor(factory, 1), NewShardedMonitor(factory, 3)
		r := rand.New(rand.NewSource(seed))
		randGraph := func() *graph.Graph {
			g := graph.New()
			for e := 0; e < 1+r.Intn(4); e++ {
				u := graph.VertexID(r.Intn(5))
				op := graph.InsertOp(u, 0, u+1+graph.VertexID(r.Intn(3)), 0, graph.Label(r.Intn(3)))
				_ = op.Apply(g) // a duplicate edge just leaves g smaller
			}
			return g
		}
		for step := 0; step < 120; step++ {
			var errOne, errThree error
			switch op := r.Intn(10); {
			case op == 0:
				g := randGraph()
				_, errOne = one.AddQuery(g)
				_, errThree = three.AddQuery(g)
			case op == 1 && one.QueryCount() > 0:
				id := QueryID(r.Intn(int(one.nextQ))) // sometimes already removed
				errOne, errThree = one.RemoveQuery(id), three.RemoveQuery(id)
			case op == 2 || one.StreamCount() == 0:
				g := randGraph()
				_, errOne = one.AddStream(g)
				_, errThree = three.AddStream(g)
			default:
				changes := make(map[StreamID]graph.ChangeSet)
				for k := 0; k < 1+r.Intn(4); k++ {
					var cs graph.ChangeSet
					for e := 0; e < r.Intn(3); e++ {
						u, v := graph.VertexID(r.Intn(6)), graph.VertexID(6+r.Intn(3))
						if r.Intn(3) == 0 {
							cs = append(cs, graph.DeleteOp(u, v))
						} else { // inserting an edge that exists makes the batch invalid
							cs = append(cs, graph.InsertOp(u, 0, v, 0, graph.Label(r.Intn(3))))
						}
					}
					changes[StreamID(r.Intn(one.StreamCount()))] = cs
				}
				var pOne, pThree []Pair
				pOne, errOne = one.StepAll(changes)
				pThree, errThree = three.StepAll(changes)
				if !pairsEqual(pOne, pThree) {
					t.Fatalf("seed %d step %d: StepAll pairs %v != %v", seed, step, pThree, pOne)
				}
			}
			if (errOne == nil) != (errThree == nil) {
				t.Fatalf("seed %d step %d: one shard: %v; three shards: %v", seed, step, errOne, errThree)
			}
			if got, want := three.Candidates(), one.Candidates(); !pairsEqual(got, want) {
				t.Fatalf("seed %d step %d: candidates %v != %v", seed, step, got, want)
			}
		}
		for id := StreamID(0); int(id) < one.StreamCount(); id++ {
			if !three.StreamGraph(id).Equal(one.StreamGraph(id)) {
				t.Fatalf("seed %d: canonical graph of stream %d diverges", seed, id)
			}
		}
		sOne, sThree := one.Stats(), three.Stats()
		sOne.FilterTime, sThree.FilterTime = 0, 0 // wall time is the one thing sharding may change
		if sOne != sThree || sOne.Timestamps == 0 || sOne.CandidatePairs == 0 {
			t.Fatalf("seed %d: stats %+v != %+v", seed, sThree, sOne)
		}
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
