// Package nntstream's root benchmark suite regenerates the cost side of
// every figure in the paper's evaluation as testing.B benchmarks — one
// bench (or sub-bench group) per table/figure — over small fixed-seed
// workloads. cmd/experiments produces the corresponding effectiveness
// tables; EXPERIMENTS.md pairs the two.
//
// Stream benches replay a recorded stream; when b.N exceeds the recording,
// the cursor wraps around. All change operations are idempotent against an
// already-final state (re-inserts and deletes of absent edges are no-ops),
// so wrapped replay keeps filters consistent while measuring steady-state
// per-timestamp cost.
package nntstream

import (
	"math/rand"
	"sync"
	"testing"

	"nntstream/internal/core"
	"nntstream/internal/datagen"
	"nntstream/internal/gindex"
	"nntstream/internal/graph"
	"nntstream/internal/graphgrep"
	"nntstream/internal/iso"
	"nntstream/internal/join"
	"nntstream/internal/nnt"
	"nntstream/internal/npv"
	"nntstream/internal/skyline"
)

// --- shared workloads, generated once ---

type streamBenchWorkload struct {
	queries []*graph.Graph
	streams []*graph.Stream
}

var (
	onceWorkloads sync.Once
	wSparse       streamBenchWorkload
	wDense        streamBenchWorkload
	wReal         streamBenchWorkload
	chemDB        []*graph.Graph
	synDB         []*graph.Graph
)

func workloads() {
	onceWorkloads.Do(func() {
		const pairs, ts = 8, 120
		mk := func(flip datagen.FlipConfig, seed int64) streamBenchWorkload {
			flip.Timestamps = ts
			cfg := datagen.DefaultStreamWorkload(flip)
			cfg.Gen.NumGraphs = pairs
			w := datagen.SyntheticStreams(cfg, rand.New(rand.NewSource(seed)))
			return streamBenchWorkload{queries: w.Queries, streams: w.Streams}
		}
		wSparse = mk(datagen.SparseFlipDefaults(), 101)
		wDense = mk(datagen.DenseFlipDefaults(), 102)

		pcfg := datagen.ProximityDefaults()
		pcfg.Timestamps = ts
		r := rand.New(rand.NewSource(103))
		series := datagen.Proximity(pcfg, rand.New(rand.NewSource(103)))
		wReal = streamBenchWorkload{
			queries: datagen.ProximityQueries(series, 6, 2, 6, r),
			streams: datagen.ProximityStreams(pcfg, 6, r),
		}

		ccfg := datagen.ChemicalDefaults()
		ccfg.NumGraphs = 200
		chemDB = datagen.Chemical(ccfg, rand.New(rand.NewSource(104)))

		scfg := datagen.StaticSyntheticDefaults()
		scfg.NumGraphs = 200
		scfg.NumSeeds = 8
		synDB = datagen.Synthetic(scfg, rand.New(rand.NewSource(105)))
	})
}

// stepper wires a filter to a workload and yields one StepAll per call.
type stepper struct {
	mon     *core.Monitor
	cursors []*graph.Cursor
	ids     []core.StreamID
	streams []*graph.Stream
}

func newStepper(b *testing.B, f core.Filter, w streamBenchWorkload) *stepper {
	b.Helper()
	s := &stepper{mon: core.NewMonitor(f), streams: w.streams}
	for _, q := range w.queries {
		if _, err := s.mon.AddQuery(q); err != nil {
			b.Fatal(err)
		}
	}
	for _, st := range w.streams {
		id, err := s.mon.AddStream(st.Start)
		if err != nil {
			b.Fatal(err)
		}
		s.ids = append(s.ids, id)
		s.cursors = append(s.cursors, graph.NewCursor(st))
	}
	return s
}

func (s *stepper) step(b *testing.B) {
	b.Helper()
	changes := make(map[core.StreamID]graph.ChangeSet, len(s.cursors))
	for i, c := range s.cursors {
		cs, ok := c.Next()
		if !ok {
			c = graph.NewCursor(s.streams[i]) // wrap around
			s.cursors[i] = c
			cs, ok = c.Next()
			if !ok {
				continue
			}
		}
		if len(cs) > 0 {
			changes[s.ids[i]] = cs
		}
	}
	if _, err := s.mon.StepAll(changes); err != nil {
		b.Fatal(err)
	}
}

func benchStream(b *testing.B, mk func() core.Filter, w streamBenchWorkload) {
	workloads()
	s := newStepper(b, mk(), w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.step(b)
	}
}

// --- Figure 2: preliminary comparison (per-timestamp cost) ---

func BenchmarkFig02_GraphGrep(b *testing.B) {
	benchStream(b, func() core.Filter { return graphgrep.New(graphgrep.DefaultLength) }, benchSparse(b))
}

func BenchmarkFig02_GIndex2(b *testing.B) {
	benchStream(b, func() core.Filter { return gindex.New(gindex.Setting2()) }, benchSparse(b))
}

func BenchmarkFig02_NPVDSC(b *testing.B) {
	benchStream(b, func() core.Filter { return join.NewDSC(join.DefaultDepth) }, benchSparse(b))
}

func benchSparse(b *testing.B) streamBenchWorkload { workloads(); return wSparse }
func benchDense(b *testing.B) streamBenchWorkload  { workloads(); return wDense }
func benchReal(b *testing.B) streamBenchWorkload   { workloads(); return wReal }

// --- Figure 12: NNT depth sweep (candidate computation per query) ---

func BenchmarkFig12_Depth(b *testing.B) {
	for _, depth := range []int{1, 2, 3, 4} {
		depth := depth
		b.Run(map[int]string{1: "L1", 2: "L2", 3: "L3", 4: "L4"}[depth], func(b *testing.B) {
			benchFig12Depth(b, depth)
		})
	}
}

// benchFig12Depth is the leaf body of the depth sweep, factored out so the
// benchjson registry can drive each depth as an independent record. The
// database vectors are frozen into packed form up front — the static
// filter-and-verify shape — so the sweep measures the production dominance
// kernel, not the map projection it replaced.
func benchFig12Depth(b *testing.B, depth int) {
	workloads()
	r := rand.New(rand.NewSource(112))
	queries := datagen.QuerySet(chemDB, 10, 8, r)
	vecs := make([][]npv.PackedVector, len(chemDB))
	for i, g := range chemDB {
		vecs[i] = npv.PackAll(npv.VectorsByVertex(npv.ProjectGraph(g, depth)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		maximal := skyline.MaximalPacked(npv.PackAll(npv.VectorsByVertex(npv.ProjectGraph(q, depth))))
		count := 0
	graphs:
		for gi := range vecs {
			for _, u := range maximal {
				ok := false
				for _, v := range vecs[gi] {
					if v.Dominates(u) {
						ok = true
						break
					}
				}
				if !ok {
					continue graphs
				}
			}
			count++
		}
		_ = count
	}
}

// --- Figure 13: static effectiveness (per-query filtering cost) ---

func BenchmarkFig13_NPVQuery(b *testing.B) {
	workloads()
	r := rand.New(rand.NewSource(113))
	queries := datagen.QuerySet(synDB, 10, 8, r)
	vecs := make([][]npv.PackedVector, len(synDB))
	for i, g := range synDB {
		vecs[i] = npv.PackAll(npv.VectorsByVertex(npv.ProjectGraph(g, join.DefaultDepth)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		maximal := skyline.MaximalPacked(npv.PackAll(npv.VectorsByVertex(npv.ProjectGraph(q, join.DefaultDepth))))
		count := 0
	graphs:
		for gi := range vecs {
			for _, u := range maximal {
				ok := false
				for _, v := range vecs[gi] {
					if v.Dominates(u) {
						ok = true
						break
					}
				}
				if !ok {
					continue graphs
				}
			}
			count++
		}
		_ = count
	}
}

func BenchmarkFig13_GIndex1Query(b *testing.B) {
	workloads()
	r := rand.New(rand.NewSource(113))
	queries := datagen.QuerySet(synDB, 10, 8, r)
	idx := gindex.Build(synDB, gindex.Setting1().MineConfig(len(synDB)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = idx.Candidates(queries[i%len(queries)], len(synDB))
	}
}

func BenchmarkFig13_GIndex1Mining(b *testing.B) {
	workloads()
	for i := 0; i < b.N; i++ {
		_ = gindex.Build(synDB, gindex.Setting1().MineConfig(len(synDB)))
	}
}

func BenchmarkFig13_GraphGrepQuery(b *testing.B) {
	workloads()
	r := rand.New(rand.NewSource(113))
	queries := datagen.QuerySet(synDB, 10, 8, r)
	fps := make([]graphgrep.Fingerprint, len(synDB))
	for i, g := range synDB {
		fps[i] = graphgrep.Compute(g, graphgrep.DefaultLength)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qfp := graphgrep.Compute(queries[i%len(queries)], graphgrep.DefaultLength)
		count := 0
		for gi := range fps {
			if graphgrep.Covers(fps[gi], qfp) {
				count++
			}
		}
		_ = count
	}
}

// --- Figures 14/15: stream effectiveness & efficiency (per-timestamp) ---

func BenchmarkFig1415_Real_GraphGrep(b *testing.B) {
	benchStream(b, func() core.Filter { return graphgrep.New(graphgrep.DefaultLength) }, benchReal(b))
}

func BenchmarkFig1415_Real_GIndex1(b *testing.B) {
	benchStream(b, func() core.Filter { return gindex.New(gindex.Setting1()) }, benchReal(b))
}

func BenchmarkFig1415_Real_GIndex2(b *testing.B) {
	benchStream(b, func() core.Filter { return gindex.New(gindex.Setting2()) }, benchReal(b))
}

func BenchmarkFig1415_Real_NPVDSC(b *testing.B) {
	benchStream(b, func() core.Filter { return join.NewDSC(join.DefaultDepth) }, benchReal(b))
}

func BenchmarkFig1415_SynSparse_GraphGrep(b *testing.B) {
	benchStream(b, func() core.Filter { return graphgrep.New(graphgrep.DefaultLength) }, benchSparse(b))
}

func BenchmarkFig1415_SynSparse_GIndex1(b *testing.B) {
	benchStream(b, func() core.Filter { return gindex.New(gindex.Setting1()) }, benchSparse(b))
}

func BenchmarkFig1415_SynSparse_GIndex2(b *testing.B) {
	benchStream(b, func() core.Filter { return gindex.New(gindex.Setting2()) }, benchSparse(b))
}

func BenchmarkFig1415_SynSparse_NPVDSC(b *testing.B) {
	benchStream(b, func() core.Filter { return join.NewDSC(join.DefaultDepth) }, benchSparse(b))
}

func BenchmarkFig1415_SynDense_GraphGrep(b *testing.B) {
	benchStream(b, func() core.Filter { return graphgrep.New(graphgrep.DefaultLength) }, benchDense(b))
}

func BenchmarkFig1415_SynDense_GIndex2(b *testing.B) {
	benchStream(b, func() core.Filter { return gindex.New(gindex.Setting2()) }, benchDense(b))
}

func BenchmarkFig1415_SynDense_NPVDSC(b *testing.B) {
	benchStream(b, func() core.Filter { return join.NewDSC(join.DefaultDepth) }, benchDense(b))
}

// --- Figure 16: query scalability (join strategies at max queries) ---

func BenchmarkFig16_NL(b *testing.B) {
	benchStream(b, func() core.Filter { return join.NewNL(join.DefaultDepth) }, benchSparse(b))
}

func BenchmarkFig16_DSC(b *testing.B) {
	benchStream(b, func() core.Filter { return join.NewDSC(join.DefaultDepth) }, benchSparse(b))
}

func BenchmarkFig16_Skyline(b *testing.B) {
	benchStream(b, func() core.Filter { return join.NewSkyline(join.DefaultDepth) }, benchSparse(b))
}

// --- Figure 17: stream scalability (join strategies on the real data) ---

func BenchmarkFig17_NL(b *testing.B) {
	benchStream(b, func() core.Filter { return join.NewNL(join.DefaultDepth) }, benchReal(b))
}

func BenchmarkFig17_DSC(b *testing.B) {
	benchStream(b, func() core.Filter { return join.NewDSC(join.DefaultDepth) }, benchReal(b))
}

func BenchmarkFig17_Skyline(b *testing.B) {
	benchStream(b, func() core.Filter { return join.NewSkyline(join.DefaultDepth) }, benchReal(b))
}

// --- Parallel evaluation: worker pool over the multi-stream figures ---

// benchParallelStream replays a multi-stream workload through a filter with
// an explicit worker bound. The Monitor batches each timestamp through
// ApplyAll, so the filter's evalPool fans the dirty (stream, query) pairs
// across the workers; W1 is the sequential inline path and the baseline the
// speedup in BENCH_<rev>.json is measured against. The output contract (pool
// results identical to sequential) is pinned by internal/join's determinism
// tests, so these benches only measure cost.
func benchParallelStream(b *testing.B, mk func() core.Filter, w streamBenchWorkload, workers int) {
	workloads()
	f := mk()
	f.(core.ParallelFilter).SetWorkers(workers)
	s := newStepper(b, f, w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.step(b)
	}
}

func BenchmarkParallel_NL_W1(b *testing.B) {
	benchParallelStream(b, func() core.Filter { return join.NewNL(join.DefaultDepth) }, benchSparse(b), 1)
}

func BenchmarkParallel_NL_W4(b *testing.B) {
	benchParallelStream(b, func() core.Filter { return join.NewNL(join.DefaultDepth) }, benchSparse(b), 4)
}

func BenchmarkParallel_DSC_W1(b *testing.B) {
	benchParallelStream(b, func() core.Filter { return join.NewDSC(join.DefaultDepth) }, benchSparse(b), 1)
}

func BenchmarkParallel_DSC_W4(b *testing.B) {
	benchParallelStream(b, func() core.Filter { return join.NewDSC(join.DefaultDepth) }, benchSparse(b), 4)
}

func BenchmarkParallel_Skyline_W1(b *testing.B) {
	benchParallelStream(b, func() core.Filter { return join.NewSkyline(join.DefaultDepth) }, benchReal(b), 1)
}

func BenchmarkParallel_Skyline_W4(b *testing.B) {
	benchParallelStream(b, func() core.Filter { return join.NewSkyline(join.DefaultDepth) }, benchReal(b), 4)
}

// --- Query-count sweep: dominance candidate index vs nested loop ---

// The qindex tentpole claims per-timestamp evaluation cost sub-linear in
// the number of registered queries. The sweep holds the stream workload
// fixed (two low-churn flip streams) and grows the query set 10× and 100×:
// Skyline generates candidates through the index, NL is the plain nested
// loop that re-probes every query — the flattening of Skyline against NL
// across Q16 → Q160 → Q1600 is the recorded evidence of what the index
// buys. DSC's column store *is* the index.
//
// The streams deliberately use 50×-smaller flip rates than the paper's
// sparse regime at the same stationary density (p1/(p1+p2) = 1/4): a few
// edge events per timestamp instead of a ~15% graph rewrite. That is the
// continuous-monitoring regime the index targets — per-timestamp work
// proportional to what actually flipped. Under bulk rewrites most
// dominance bits genuinely flip, every query is truly affected, and no
// sound candidate generator can prune (the Fig16/Fig17 benches already
// cover that regime).
var (
	onceQSweep    sync.Once
	qsweepQueries []*graph.Graph
	qsweepStreams []*graph.Stream
)

const qsweepMaxQueries = 1600

func qsweepWorkload(n int) streamBenchWorkload {
	onceQSweep.Do(func() {
		cfg := datagen.DefaultStreamWorkload(datagen.FlipConfig{
			AppearProb: 0.002, DisappearProb: 0.006, Timestamps: 120,
		})
		cfg.Gen.NumGraphs = 2
		w := datagen.SyntheticStreams(cfg, rand.New(rand.NewSource(117)))
		qsweepStreams = w.Streams
		db := make([]*graph.Graph, 0, len(qsweepStreams))
		for _, st := range qsweepStreams {
			db = append(db, st.Start)
		}
		r := rand.New(rand.NewSource(118))
		qsweepQueries = datagen.QuerySet(db, qsweepMaxQueries, 6, r)
	})
	return streamBenchWorkload{queries: qsweepQueries[:n], streams: qsweepStreams}
}

func benchQSweep(b *testing.B, variant string, n int) {
	mk := map[string]func() core.Filter{
		"NL":      func() core.Filter { return join.NewNL(join.DefaultDepth) },
		"Skyline": func() core.Filter { return join.NewSkyline(join.DefaultDepth) },
		"DSC":     func() core.Filter { return join.NewDSC(join.DefaultDepth) },
	}[variant]
	benchStream(b, mk, qsweepWorkload(n))
}

var qsweepCounts = map[string]int{"Q16": 16, "Q160": 160, "Q1600": 1600}

func benchQSweepGroup(b *testing.B, variant string) {
	for _, name := range []string{"Q16", "Q160", "Q1600"} {
		n := qsweepCounts[name]
		b.Run(name, func(b *testing.B) { benchQSweep(b, variant, n) })
	}
}

func BenchmarkQSweep_NL(b *testing.B)      { benchQSweepGroup(b, "NL") }
func BenchmarkQSweep_Skyline(b *testing.B) { benchQSweepGroup(b, "Skyline") }
func BenchmarkQSweep_DSC(b *testing.B)     { benchQSweepGroup(b, "DSC") }

// --- Ablation: branch-compatible NNT vs NPV vs exact ---

func BenchmarkAblation_Branch(b *testing.B) {
	benchStream(b, func() core.Filter { return join.NewBranch(join.DefaultDepth) }, benchSparse(b))
}

func BenchmarkAblation_Exact(b *testing.B) {
	benchStream(b, func() core.Filter { return join.NewExact() }, benchSparse(b))
}

// --- NPV dominance kernel microbenchmarks ---

// The map/packed pair below measures one Lemma 4.2 dominance test in
// isolation on an identical, deterministic pair workload: stream-side
// vectors from the chemical database projected at depth 3, query-side
// vectors from a query set drawn over the same database, probed in a fixed
// pseudo-random pair order. The only difference between the two benches is
// the vector representation, so their ratio is the kernel speedup itself.
var (
	onceDominance   sync.Once
	domStreamMap    []npv.Vector
	domQueryMap     []npv.Vector
	domStreamPacked []npv.PackedVector
	domQueryPacked  []npv.PackedVector
	domPairs        [][2]int
	domSink         bool
)

func dominanceWorkload() {
	workloads()
	onceDominance.Do(func() {
		const depth = 3
		r := rand.New(rand.NewSource(114))
		for _, g := range chemDB {
			domStreamMap = append(domStreamMap, npv.VectorsByVertex(npv.ProjectGraph(g, depth))...)
		}
		for _, q := range datagen.QuerySet(chemDB, 20, 8, r) {
			domQueryMap = append(domQueryMap, npv.VectorsByVertex(npv.ProjectGraph(q, depth))...)
		}
		domStreamPacked = npv.PackAll(domStreamMap)
		domQueryPacked = npv.PackAll(domQueryMap)
		for i := 0; i < 4096; i++ {
			domPairs = append(domPairs, [2]int{r.Intn(len(domStreamMap)), r.Intn(len(domQueryMap))})
		}
	})
}

func Benchmark_NPV_Dominates_Map(b *testing.B) {
	dominanceWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	sink := false
	for i := 0; i < b.N; i++ {
		p := domPairs[i%len(domPairs)]
		sink = domStreamMap[p[0]].Dominates(domQueryMap[p[1]])
	}
	domSink = sink
}

func Benchmark_NPV_Dominates_Packed(b *testing.B) {
	dominanceWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	sink := false
	for i := 0; i < b.N; i++ {
		p := domPairs[i%len(domPairs)]
		sink = domStreamPacked[p[0]].Dominates(domQueryPacked[p[1]])
	}
	domSink = sink
}

// TestPackedDominatesAllocatesNothing pins the packed kernel the
// Benchmark_NPV_Dominates_Packed row measures at 0 allocations per test.
func TestPackedDominatesAllocatesNothing(t *testing.T) {
	dominanceWorkload()
	i, sink := 0, false
	allocs := testing.AllocsPerRun(len(domPairs), func() {
		p := domPairs[i%len(domPairs)]
		sink = domStreamPacked[p[0]].Dominates(domQueryPacked[p[1]])
		i++
	})
	domSink = sink
	if allocs != 0 {
		t.Fatalf("packed Dominates allocates %v per call; want 0", allocs)
	}
}

// --- substrate microbenchmarks ---

// BenchmarkNNTMaintenance measures the Insert-Edge/Delete-Edge procedures
// of Section III-B (Lemma 3.2) in isolation.
func BenchmarkNNTMaintenance(b *testing.B) {
	workloads()
	tpl := wSparse.streams[0]
	f := nnt.NewForest(tpl.Start, join.DefaultDepth)
	cur := graph.NewCursor(tpl)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs, ok := cur.Next()
		if !ok {
			b.StopTimer()
			cur = graph.NewCursor(tpl)
			f = nnt.NewForest(tpl.Start, join.DefaultDepth)
			b.StartTimer()
			cs, _ = cur.Next()
		}
		if err := f.ApplySet(cs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNPVRecount advances the recounting npv.Store — the stream state
// NL, Skyline and DSC run on — over the same sparse stream as
// BenchmarkNNTMaintenance, so the two read as forest patching vs recounting
// per timestamp.
func BenchmarkNPVRecount(b *testing.B) {
	workloads()
	tpl := wSparse.streams[0]
	s := npv.NewStore(tpl.Start, join.DefaultDepth)
	cur := graph.NewCursor(tpl)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs, ok := cur.Next()
		if !ok {
			b.StopTimer()
			cur = graph.NewCursor(tpl)
			s = npv.NewStore(tpl.Start, join.DefaultDepth)
			b.StartTimer()
			cs, _ = cur.Next()
		}
		if err := s.Apply(cs); err != nil {
			b.Fatal(err)
		}
	}
}

// maxNPVRecountAllocs caps one npv.Store timestamp on the sparse stream at
// its measured steady state: what is left allocates only for vertices the
// timestamp creates.
const maxNPVRecountAllocs = 14

// TestNPVRecountAllocsCapped replays BenchmarkNPVRecount's stream once and
// caps the mean allocations per timestamp.
func TestNPVRecountAllocsCapped(t *testing.T) {
	workloads()
	tpl := wSparse.streams[0]
	s := npv.NewStore(tpl.Start, join.DefaultDepth)
	cur := graph.NewCursor(tpl)
	// AllocsPerRun makes one warm-up call before the runs it averages.
	allocs := testing.AllocsPerRun(len(tpl.Changes)-1, func() {
		cs, _ := cur.Next()
		if err := s.Apply(cs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxNPVRecountAllocs {
		t.Fatalf("npv.Store allocates %v per timestamp; cap %d", allocs, maxNPVRecountAllocs)
	}
	t.Logf("allocs per timestamp: %v", allocs)
}

// BenchmarkVF2HardInstance shows why the paper avoids exact isomorphism on
// the hot path: a near-regular unlabeled instance forces deep backtracking.
func BenchmarkVF2HardInstance(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	g := graph.New()
	const n = 26
	for i := 0; i < n; i++ {
		_ = g.AddVertex(graph.VertexID(i), 0)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < 0.45 {
				_ = g.AddEdge(graph.VertexID(i), graph.VertexID(j), 0)
			}
		}
	}
	// Query: a 9-vertex near-clique that is absent.
	q := graph.New()
	for i := 0; i < 9; i++ {
		_ = q.AddVertex(graph.VertexID(i), 0)
	}
	for i := 0; i < 9; i++ {
		for j := i + 1; j < 9; j++ {
			if (i+j)%7 != 0 {
				_ = q.AddEdge(graph.VertexID(i), graph.VertexID(j), 0)
			}
		}
	}
	m := iso.NewMatcher(q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Contains(g)
	}
}
