package join

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"nntstream/internal/core"
	"nntstream/internal/fuzzsched/reference"
	"nntstream/internal/graph"
)

// batchStreamIDs extracts a change batch's stream IDs in ascending order,
// the order a sequential walk visits them in.
func batchStreamIDs(changes map[core.StreamID]graph.ChangeSet) []core.StreamID {
	ids := make([]core.StreamID, 0, len(changes))
	for id := range changes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// equivFilter is one harness participant: a dynamic filter plus, when par
// is non-nil, the batch path it is driven through instead of Apply.
type equivFilter struct {
	name string
	f    core.Filter
	par  core.BatchApplier
}

// batchDriven sets f's worker pool and returns its parallel batch path.
func batchDriven(f core.ParallelFilter) core.BatchApplier {
	f.SetWorkers(4)
	return f.(core.BatchApplier)
}

// oracleFilters builds every join configuration, each checked against the
// same reference: NL, Skyline and DSC, each both sequential and through
// ApplyAll.
func oracleFilters(depth int) []equivFilter {
	nlPar, skyPar, dscPar := NewNL(depth), NewSkyline(depth), NewDSC(depth)
	return []equivFilter{
		{name: "NL", f: NewNL(depth)},
		{name: "NL/par", f: nlPar, par: batchDriven(nlPar)},
		{name: "Skyline/seq", f: NewSkyline(depth)},
		{name: "Skyline/par", f: skyPar, par: batchDriven(skyPar)},
		{name: "DSC/seq", f: NewDSC(depth)},
		{name: "DSC/par", f: dscPar, par: batchDriven(dscPar)},
	}
}

// oracleEquiv parameterizes one run of the oracle equivalence harness.
type oracleEquiv struct {
	seedBase int64
	seeds    int
	steps    int
	// twins registers every initial query twice, so the set is
	// duplicate-heavy: equal query vectors share every column entry and
	// Skyline's maximal sets collapse them.
	twins bool
	// static turns query churn off: every step is a change batch.
	static bool
	// streamsFirst registers the streams before any query, so every query
	// arrives live through the dynamic path.
	streamsFirst bool
	// batch generates step's change batch, mutating graphs to the new
	// canonical state; nil means randomBatch.
	batch func(r *rand.Rand, graphs map[core.StreamID]*graph.Graph, step int) map[core.StreamID]graph.ChangeSet
}

// run drives every oracleFilters participant through a randomized
// multi-stream workload built around a template graph — template-derived
// queries and, unless static, queries added and removed mid-stream — and
// checks at every timestamp that each one's candidate set equals a
// from-scratch map-kernel recomputation. Alongside them it drives the exact
// VF2 filter and Branch, and checks that the exact matches are a subset of
// the reference's candidates and of Branch's: no false negatives.
func (c oracleEquiv) run(t *testing.T) {
	t.Helper()
	for seed := c.seedBase; seed < c.seedBase+int64(c.seeds); seed++ {
		r := rand.New(rand.NewSource(seed))
		depth := 1 + r.Intn(3)
		template := randomConnected(r, 10, 3, 2)
		var starts []*graph.Graph
		for i := 0; i < 3; i++ {
			starts = append(starts, randomConnected(r, 8+r.Intn(4), 3, 2))
		}
		starts = append(starts, template.Clone())

		filters := oracleFilters(depth)
		exact, branch := NewExact(), NewBranch(depth)
		all := append(filters, equivFilter{name: "Exact", f: exact}, equivFilter{name: "Branch", f: branch})
		live := make(map[core.QueryID]*graph.Graph)
		nextQ := core.QueryID(0)
		addQuery := func(q *graph.Graph) {
			id := nextQ
			nextQ++
			for _, ef := range all {
				if err := ef.f.AddQuery(id, q); err != nil {
					t.Fatalf("seed=%d: %s add query %d: %v", seed, ef.name, id, err)
				}
			}
			live[id] = q
		}
		// Template-with-variations set: perturbed variants from the same
		// template, each registered twice when twins is set (identical
		// twins guarantee shared entries).
		addQueries := func() {
			for i := 0; i < 3; i++ {
				q := randomSub(r, template)
				addQuery(q)
				if c.twins {
					addQuery(q.Clone())
				}
			}
		}
		addStreams := func() {
			for _, ef := range all {
				for sid, g := range starts {
					if err := ef.f.AddStream(core.StreamID(sid), g); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if c.streamsFirst {
			addStreams()
			addQueries()
		} else {
			addQueries()
			addStreams()
		}
		graphs := make(map[core.StreamID]*graph.Graph)
		for sid, g := range starts {
			graphs[core.StreamID(sid)] = g.Clone()
		}
		check := func(step int) {
			want := reference.Candidates(graphs, live, depth)
			for _, ef := range filters {
				got := ef.f.Candidates()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed=%d step=%d: %s candidates %v != reference %v",
						seed, step, ef.name, got, want)
				}
				if sky, ok := ef.f.(*Skyline); ok {
					checkPairMemos(t, &sky.vecJoin, fmt.Sprintf("seed=%d step=%d: %s", seed, step, ef.name))
				}
			}
			for _, ef := range all {
				if n, listed := ef.f.(core.CandidateCounter).CandidateCount(), len(ef.f.Candidates()); n != listed {
					t.Fatalf("seed=%d step=%d: %s counts %d candidates; it lists %d", seed, step, ef.name, n, listed)
				}
			}
			// Every filter above reports want, so checking want checks them.
			for name, got := range map[string][]core.Pair{"the reference": want, "Branch": branch.Candidates()} {
				for _, p := range exact.Candidates() {
					if !slices.Contains(got, p) {
						t.Fatalf("seed=%d depth=%d step=%d: %s missed exact pair %v", seed, depth, step, name, p)
					}
				}
			}
		}
		check(-1)

		for step := 0; step < c.steps; step++ {
			switch {
			case !c.static && step%6 == 2:
				// Mid-stream registration: a fresh template subgraph half
				// the time (overlapping the registered set), live-state
				// subgraph otherwise (so real matches occur).
				var q *graph.Graph
				if r.Intn(2) == 0 {
					q = randomSub(r, template)
				} else {
					q = randomSub(r, graphs[core.StreamID(r.Intn(len(starts)))])
				}
				if q.VertexCount() > 0 {
					addQuery(q)
				}
			case !c.static && step%8 == 5 && len(live) > 1:
				// Remove a deterministic pick from the live set.
				ids := make([]core.QueryID, 0, len(live))
				for id := range live {
					ids = append(ids, id)
				}
				sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
				victim := ids[r.Intn(len(ids))]
				for _, ef := range all {
					if err := ef.f.RemoveQuery(victim); err != nil {
						t.Fatalf("seed=%d step=%d: %s remove query %d: %v",
							seed, step, ef.name, victim, err)
					}
				}
				delete(live, victim)
			default:
				var batch map[core.StreamID]graph.ChangeSet
				if c.batch != nil {
					batch = c.batch(r, graphs, step)
				} else {
					batch = randomBatch(r, graphs)
				}
				for _, ef := range all {
					if ef.par != nil {
						if err := ef.par.ApplyAll(batch); err != nil {
							t.Fatalf("seed=%d step=%d: %s batch apply: %v", seed, step, ef.name, err)
						}
						continue
					}
					for _, sid := range batchStreamIDs(batch) {
						if err := ef.f.Apply(sid, batch[sid]); err != nil {
							t.Fatalf("seed=%d step=%d: %s apply: %v", seed, step, ef.name, err)
						}
					}
				}
			}
			check(step)
		}
	}
}

// TestDuplicateQueriesMatchOracleRandomized runs the full configuration set
// on a duplicate-heavy template-derived query set with churn: twin queries
// share column entries and maximal vectors, and removing one twin must leave
// the other answering exactly as the NL oracle and the map-kernel reference
// do.
func TestDuplicateQueriesMatchOracleRandomized(t *testing.T) {
	oracleEquiv{seedBase: 4400, seeds: 3, steps: 24, twins: true}.run(t)
}

// TestIndexedMatchesScanRandomized runs the full configuration set on a
// query set without twins: Skyline (index-driven) and DSC (whose index is
// its column store) must answer bit-identically to the NL full scan and to
// the map-kernel reference while queries are added and removed mid-stream,
// so the indexes mutate post-seal.
func TestIndexedMatchesScanRandomized(t *testing.T) {
	oracleEquiv{seedBase: 1700, seeds: 3, steps: 20}.run(t)
}

// TestPackedKernelMatchesMapKernelRandomized is the packed kernel's
// representation-change contract at the filter level: on a fixed query set,
// every configuration reports exactly what the map kernel computes over
// vectors counted from scratch (internal/fuzzsched/reference).
func TestPackedKernelMatchesMapKernelRandomized(t *testing.T) {
	oracleEquiv{seedBase: 900, seeds: 3, steps: 20, static: true}.run(t)
}

// TestParallelMatchesSequentialRandomized is the pool's determinism
// contract: each strategy driven through ApplyAll on four workers reports
// what its sequential twin does, because both equal the reference. Run
// under -race (the Makefile's race target covers this package) it also
// proves the fan-out shares no state.
func TestParallelMatchesSequentialRandomized(t *testing.T) {
	oracleEquiv{seedBase: 400, seeds: 4, steps: 25, static: true}.run(t)
}

// TestAgreementAndSoundnessRandomized is the central join contract on a
// fixed query set: NL, DSC and Skyline implement the same predicate, so
// they report identical candidate sets, and every filter — Branch included
// — reports a superset of the exact joinable pairs.
func TestAgreementAndSoundnessRandomized(t *testing.T) {
	oracleEquiv{seedBase: 0, seeds: 5, steps: 12, static: true}.run(t)
}

// TestDynamicAgreementRandomized holds the same invariants under a churning
// query set on live streams: every query, the initial ones included,
// arrives after the streams.
func TestDynamicAgreementRandomized(t *testing.T) {
	oracleEquiv{seedBase: 0, seeds: 4, steps: 25, streamsFirst: true}.run(t)
}

// TestHubResealMatchesOracleRandomized: every step toggles an edge at each
// of the hub vertices 0 and 1 of every stream — the low IDs randomConnected
// links most, so the likeliest Skyline witnesses — so witnesses are
// resealed every step and re-tested on the kernel instead of trusted.
func TestHubResealMatchesOracleRandomized(t *testing.T) {
	oracleEquiv{seedBase: 5100, seeds: 3, steps: 24, batch: func(r *rand.Rand, graphs map[core.StreamID]*graph.Graph, _ int) map[core.StreamID]graph.ChangeSet {
		return toggleBatch(r, graphs, func(_ core.StreamID, _ *graph.Graph, toggle func(u, v graph.VertexID)) {
			toggle(0, graph.VertexID(2+r.Intn(10)))
			toggle(1, graph.VertexID(2+r.Intn(10)))
			toggle(graph.VertexID(2+r.Intn(10)), graph.VertexID(2+r.Intn(10)))
		})
	}}.run(t)
}

// TestMaxRetreatAndRiseMatchesOracleRandomized: vertex 0 of every stream
// loses edges for five steps and gains them for the next five, so its
// dimensions' max bounds retreat (members shrink, dimensions empty and are
// dropped) and then rise again.
func TestMaxRetreatAndRiseMatchesOracleRandomized(t *testing.T) {
	oracleEquiv{seedBase: 5200, seeds: 3, steps: 30, batch: func(r *rand.Rand, graphs map[core.StreamID]*graph.Graph, step int) map[core.StreamID]graph.ChangeSet {
		shrink := step/5%2 == 0
		return toggleBatch(r, graphs, func(_ core.StreamID, cur *graph.Graph, toggle func(u, v graph.VertexID)) {
			for _, x := range r.Perm(11)[:3] {
				if v := graph.VertexID(1 + x); cur.HasEdge(0, v) == shrink {
					toggle(0, v)
				}
			}
		})
	}}.run(t)
}

// toggleBatch builds one change set per stream, in ascending stream order,
// from the edges pick toggles against stream sid's current graph cur: present
// edges are deleted and absent ones inserted (a vertex new to the graph
// gets a random label), and an edge is toggled at most once. It then
// applies each set as randomBatch does.
func toggleBatch(r *rand.Rand, graphs map[core.StreamID]*graph.Graph, pick func(sid core.StreamID, cur *graph.Graph, toggle func(u, v graph.VertexID))) map[core.StreamID]graph.ChangeSet {
	batch := make(map[core.StreamID]graph.ChangeSet)
	sids := make([]core.StreamID, 0, len(graphs))
	for sid := range graphs {
		sids = append(sids, sid)
	}
	slices.Sort(sids)
	for _, sid := range sids {
		cur := graphs[sid]
		var cs graph.ChangeSet
		touched := make(map[[2]graph.VertexID]bool)
		fresh := make(map[graph.VertexID]graph.Label)
		labelOf := func(v graph.VertexID) graph.Label {
			if l, ok := cur.VertexLabel(v); ok {
				return l
			}
			if _, ok := fresh[v]; !ok {
				fresh[v] = graph.Label(r.Intn(3))
			}
			return fresh[v]
		}
		pick(sid, cur, func(u, v graph.VertexID) {
			key := [2]graph.VertexID{min(u, v), max(u, v)}
			if u == v || touched[key] {
				return
			}
			touched[key] = true
			if cur.HasEdge(u, v) {
				cs = append(cs, graph.DeleteOp(u, v))
			} else {
				cs = append(cs, graph.InsertOp(u, labelOf(u), v, labelOf(v), graph.Label(r.Intn(2))))
			}
		})
		cs = cs.Normalize()
		next := cur.Clone()
		if len(cs) == 0 || cs.Apply(next) != nil {
			continue
		}
		graphs[sid], batch[sid] = next, cs
	}
	return batch
}

// assertVecJoinTornDown checks the shared vector-join query state is empty:
// index rows and slots, packed query vectors, the pair count and the
// query read order, per-stream verdicts, Skyline's pair memos and need
// counts, and DSC's dominant counters and covers.
func assertVecJoinTornDown(t *testing.T, name string, j *vecJoin) {
	t.Helper()
	if j.ix != nil && (j.ix.PostingCount() != 0 || j.ix.QueryCount() != 0) {
		t.Fatalf("%s: index leaked: %d postings, %d queries holding slots", name, j.ix.PostingCount(), j.ix.QueryCount())
	}
	if len(j.queries) != 0 || j.answer.Count() != 0 {
		t.Fatalf("%s: %d packed queries and a count of %d pairs leaked", name, len(j.queries), j.answer.Count())
	}
	if qids, slots := j.answer.Queries(); len(qids) != 0 || len(slots) != 0 {
		t.Fatalf("%s: the read order keeps queries %v in slots %v", name, qids, slots)
	}
	for sid, s := range j.streams {
		if slices.Contains(s.row.BySlot(), true) {
			t.Fatalf("%s stream %d: stale verdicts %v", name, sid, s.row.BySlot())
		}
		if ss, ok := s.vecStream.(*skyStream); ok {
			for slot, r := range ss.refute {
				if r != -1 {
					t.Fatalf("%s stream %d: slot %d kept its memo", name, sid, slot)
				}
			}
			if slices.ContainsFunc(ss.need, func(n int32) bool { return n != 0 }) {
				t.Fatalf("%s stream %d: need counts %v survive every query", name, sid, ss.need)
			}
		}
		if _, ok := s.vecStream.(*dscStream); ok {
			assertDSCDrained(t, name, s)
		}
	}
}

// assertTornDown checks a strategy's derived query state is empty after
// every query was removed: index postings, packed query vectors and DSC's
// dominant counters and covers — nothing may leak and nothing may keep
// answering.
func assertTornDown(t *testing.T, f core.Filter) {
	t.Helper()
	switch ff := f.(type) {
	case *NL:
		assertVecJoinTornDown(t, "NL", &ff.vecJoin)
	case *Skyline:
		assertVecJoinTornDown(t, "Skyline", &ff.vecJoin)
	case *DSC:
		assertVecJoinTornDown(t, "DSC", &ff.vecJoin)
	default:
		t.Fatalf("unknown filter type %T", f)
	}
}

// TestRemoveReRegisterEquivalence is the removal audit: register queries,
// stream, remove every query (checking all derived state is torn down),
// re-register the same patterns under the same IDs, and keep streaming —
// the filter must behave exactly like a twin built fresh at the
// re-registration point. A leaked posting, counter column, or stale
// verdict shows up as a candidate-set divergence.
func TestRemoveReRegisterEquivalence(t *testing.T) {
	for name, mk := range parallelStrategies(2) {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(311))
			template := randomConnected(r, 10, 3, 2)
			var queries []*graph.Graph
			for i := 0; i < 4; i++ {
				queries = append(queries, randomSub(r, template))
			}
			var starts []*graph.Graph
			for i := 0; i < 3; i++ {
				starts = append(starts, randomConnected(r, 8+r.Intn(4), 3, 2))
			}
			starts = append(starts, template.Clone())

			veteran := mk()
			for qid, q := range queries {
				if err := veteran.AddQuery(core.QueryID(qid), q); err != nil {
					t.Fatal(err)
				}
			}
			for sid, g := range starts {
				if err := veteran.AddStream(core.StreamID(sid), g); err != nil {
					t.Fatal(err)
				}
			}
			graphs := make(map[core.StreamID]*graph.Graph)
			for sid, g := range starts {
				graphs[core.StreamID(sid)] = g.Clone()
			}
			for step := 0; step < 10; step++ {
				batch := randomBatch(r, graphs)
				for _, sid := range batchStreamIDs(batch) {
					if err := veteran.Apply(sid, batch[sid]); err != nil {
						t.Fatal(err)
					}
				}
			}

			// Tear every query down and audit the derived state.
			for qid := range queries {
				if err := veteran.RemoveQuery(core.QueryID(qid)); err != nil {
					t.Fatal(err)
				}
			}
			if got := veteran.Candidates(); len(got) != 0 {
				t.Fatalf("candidates after removing all queries: %v", got)
			}
			assertTornDown(t, veteran)

			// Re-register the same patterns under the same IDs and race a
			// twin built fresh from the current canonical graphs.
			fresh := mk()
			for qid, q := range queries {
				if err := veteran.AddQuery(core.QueryID(qid), q); err != nil {
					t.Fatal(err)
				}
				if err := fresh.AddQuery(core.QueryID(qid), q); err != nil {
					t.Fatal(err)
				}
			}
			for sid := range starts {
				if err := fresh.AddStream(core.StreamID(sid), graphs[core.StreamID(sid)].Clone()); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := veteran.Candidates(), fresh.Candidates(); !reflect.DeepEqual(got, want) {
				t.Fatalf("after re-register: veteran %v != fresh %v", got, want)
			}
			for step := 0; step < 10; step++ {
				batch := randomBatch(r, graphs)
				for _, sid := range batchStreamIDs(batch) {
					if err := veteran.Apply(sid, batch[sid]); err != nil {
						t.Fatal(err)
					}
					if err := fresh.Apply(sid, batch[sid]); err != nil {
						t.Fatal(err)
					}
				}
				if got, want := veteran.Candidates(), fresh.Candidates(); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d after re-register: veteran %v != fresh %v", step, got, want)
				}
			}
		})
	}
}
