// Command layers is the white-box half of the benchmark: it assembles the
// serve request path in-process, wraps the seams the system already exposes
// (http.Handler, server.Engine, core.Filter through the FilterFactory,
// wal.LogFile through DurableOptions.WrapFile) in the benchmark's own span
// recorders, plays one pass of a workload through it, and then feeds the
// same change sets straight into graph, nnt, npv and qindex to split what
// no seam exposes. It reports per-layer metrics only; the gated end-to-end
// numbers come from bench/e2e, which does not depend on this program
// compiling.
//
//	layers --workload <name> --seed <n> --seconds <s> --dir <scratch> [--spans <file>]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"nntstream/bench/drive"
	"nntstream/bench/gen"
	"nntstream/bench/measure"
	"nntstream/internal/factor"
	"nntstream/internal/npv"
)

// passShare is how much of one end-to-end pass the probe plays. The script
// is generated front to back, so a shorter one is a prefix of the same
// inputs; half a pass keeps plain pass + traced pass + two replays inside
// the time one end-to-end run takes, and every figure reported is per step,
// per request or a final size.
const passShare = 0.5

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", gen.ReferenceSeconds, "run length the step counts are scaled to")
	dir := flag.String("dir", "", "scratch directory for WALs and checkpoints")
	spans := flag.String("spans", "", "file the recorded spans are written to at exit")
	flag.Parse()
	spec, ok := gen.Lookup(*workload)
	if !ok || *dir == "" {
		fmt.Fprintln(os.Stderr, "layers: need --workload <name> and --dir <scratch>")
		os.Exit(2)
	}
	// The spawned serve of bench/e2e runs with GOMAXPROCS=2; match it.
	runtime.GOMAXPROCS(2)
	w := spec.Build(*seed, passShare**seconds/gen.ReferenceSeconds)

	res := measure.Result{Attempted: 2 * w.Operations(), Metrics: map[string]measure.MetricValue{}}
	m, err := probe(*dir, *spans, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		res.Failed = res.Attempted
	} else {
		res.Correct = true
		for name, v := range m {
			res.Metrics[name] = v
		}
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "layers: encoding the result:", jerr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if err != nil {
		os.Exit(1)
	}
}

// passOut is one in-process pass.
type passOut struct {
	measure.Pass
	setup drive.SetUpTimes
	final []byte // GET /v1/candidates after the last request
}

// requestMs is Σ latency of every scripted request of the measured phase.
func (p passOut) requestMs() float64 {
	sum := 0.0
	for _, list := range [][]float64{p.IngestMs, p.ReadMs, p.AddQueryMs, p.RemoveQueryMs} {
		for _, v := range list {
			sum += v
		}
	}
	return sum
}

// play runs set-up and script through the stack. measured is called between
// the two; at fires before script request i.
func play(s *stack, w *gen.Workload, measured func(), at func(i int) error) (out passOut, err error) {
	sess := drive.NewSession(s.do)
	if out.setup, err = sess.SetUp(w); err != nil {
		return out, err
	}
	measured()
	for i, req := range w.Script {
		if err := at(i); err != nil {
			return out, err
		}
		if err := sess.Run(req, &out.Pass); err != nil {
			return out, fmt.Errorf("request %d: %w", i, err)
		}
	}
	_, body, err := s.do("GET", "/v1/candidates", nil)
	out.final = append([]byte(nil), body...)
	return out, err
}

// drill is the recovery exercise: an explicit checkpoint with the last
// tenth of the script still to come, a crash after it, and a reopen that
// restores the checkpoint and replays the WAL suffix.
type drill struct {
	checkpointS, recoverS, snapshotMB float64
}

// plainPass is the decorators-off pass: the baseline tracing overhead is
// measured against, and the host of the recovery drill (whose checkpoint
// happens between requests, outside every timed interval).
func plainPass(dir string, w *gen.Workload) (passOut, drill, error) {
	var d drill
	s, err := openStack(dir, nil, true)
	if err != nil {
		return passOut{}, d, err
	}
	checkpointAt := len(w.Script) - len(w.Script)/10
	out, err := play(s, w, func() {}, func(i int) error {
		if i != checkpointAt {
			return nil
		}
		start := time.Now()
		if err := s.engine.Checkpoint(); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		d.checkpointS = time.Since(start).Seconds()
		fi, err := os.Stat(filepath.Join(dir, "checkpoint.json"))
		if err != nil {
			return err
		}
		d.snapshotMB = float64(fi.Size()) / (1 << 20)
		return nil
	})
	if err != nil {
		_ = s.engine.Crash()
		return out, d, err
	}
	if err := s.engine.Crash(); err != nil {
		return out, d, err
	}
	start := time.Now()
	s, err = openStack(dir, nil, false)
	if err != nil {
		return out, d, fmt.Errorf("reopening after crash: %w", err)
	}
	d.recoverS = time.Since(start).Seconds()
	defer s.engine.Crash()
	_, body, err := s.do("GET", "/v1/candidates", nil)
	if err != nil {
		return out, d, err
	}
	if !bytes.Equal(body, out.final) {
		return out, d, fmt.Errorf("recovery drill: candidates after crash+reopen differ from those before")
	}
	return out, d, nil
}

// runtimeSample reads the Go runtime counters the go.* metrics are deltas of.
type runtimeSample struct {
	allocBytes, allocObjects, heapLive float64
	gcCPU, totalCPU                    float64
}

func sampleRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/live:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes:   float64(s[0].Value.Uint64()),
		allocObjects: float64(s[1].Value.Uint64()),
		heapLive:     float64(s[2].Value.Uint64()),
		gcCPU:        s[3].Value.Float64(),
		totalCPU:     s[4].Value.Float64(),
	}
}

// probe runs the plain pass, the traced pass and the replay, and derives the
// per-layer metrics.
func probe(dir, spansFile string, w *gen.Workload) (map[string]measure.MetricValue, error) {
	plain, dr, err := plainPass(filepath.Join(dir, "plain"), w)
	if err != nil {
		return nil, fmt.Errorf("plain pass: %w", err)
	}

	t := newTracer()
	s, err := openStack(filepath.Join(dir, "traced"), t, true)
	if err != nil {
		return nil, err
	}
	defer s.engine.Crash()
	var rt0 runtimeSample
	var tests0, sig0, evals0, lookups0, rejects0 int64
	traced, err := play(s, w, func() {
		runtime.GC()
		rt0 = sampleRuntime()
		tests0, sig0 = npv.KernelCounters()
		evals0, lookups0, rejects0 = factor.Counters()
		s.walBytes = 0
		t.on = true
	}, func(int) error { return nil })
	t.on = false
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	rt1 := sampleRuntime()
	tests1, sig1 := npv.KernelCounters()
	evals1, lookups1, rejects1 := factor.Counters()
	if traced.Pairs != plain.Pairs || !bytes.Equal(traced.final, plain.final) {
		return nil, fmt.Errorf("traced pass reported Σ pairs %d, plain pass %d (or final candidates differ)", traced.Pairs, plain.Pairs)
	}
	if spansFile != "" {
		if err := writeSpans(spansFile, t.spans); err != nil {
			return nil, err
		}
	}

	rp, err := replay(w)
	if err != nil {
		return nil, err
	}

	sp := summarize(t.spans)
	steps := float64(traced.Steps)
	requests := float64(len(traced.IngestMs))
	reads := float64(len(traced.ReadMs))
	var finalPairs struct {
		Pairs []json.RawMessage `json:"pairs"`
	}
	if err := json.Unmarshal(traced.final, &finalPairs); err != nil {
		return nil, err
	}

	m := map[string]measure.MetricValue{}
	set := func(name string, v float64, unit string) { m[name] = measure.MetricValue{Value: v, Unit: unit} }
	perStep := func(d time.Duration) float64 { return ms(d) / steps }
	share := func(part, whole float64) float64 {
		if whole == 0 {
			return 0
		}
		return part / whole
	}
	median := func(v []float64) float64 {
		if len(v) == 0 {
			return 0
		}
		return measure.Median(v)
	}

	tailPct, tailMs := measure.Tail(traced.IngestMs)
	set("server.request_ms_p50", measure.Median(traced.IngestMs), "ms")
	set("server.request_tail_ms", tailMs, "ms")
	set("server.request_tail_pct", tailPct, "%")
	set("server.requests", requests, "count")
	set("server.self_ms_per_request", ms(sp.self["server.ingest"])/requests, "ms")
	set("server.decode_us_per_frame", float64(rp.decode.Microseconds())/float64(rp.frames), "us")
	set("server.request_bytes_per_step", float64(traced.IngestBytes)/steps, "B")
	set("server.read_encode_ms_p50", median(sp.selfEach["server.read"]), "ms")
	set("server.response_bytes_per_read", float64(traced.ReadBytes)/reads, "B")
	set("server.register_queries_s", traced.setup.QueriesS, "s")
	set("server.register_streams_s", traced.setup.StreamsS, "s")
	set("server.add_query_ms_p50", median(traced.AddQueryMs), "ms")
	set("server.remove_query_ms_p50", median(traced.RemoveQueryMs), "ms")

	set("core.step_batch_ms_per_step", perStep(sp.total["core.step_batch"]), "ms")
	set("core.self_ms_per_step", perStep(sp.self["core.step_batch"]), "ms")
	set("core.checkpoint_s", dr.checkpointS, "s")
	set("core.recover_s", dr.recoverS, "s")
	set("core.snapshot_mb", dr.snapshotMB, "MiB")

	set("wal.write_ms_per_step", perStep(sp.total["wal.write"]), "ms")
	set("wal.sync_ms_p50", median(sp.each["wal.sync"]), "ms")
	set("wal.syncs_per_request", float64(sp.under["wal.sync<core.step_batch"])/requests, "count")
	set("wal.bytes_per_step", float64(s.walBytes)/steps, "B")

	set("graph.clone_ms_per_step", perStep(rp.clone), "ms")
	set("graph.live_edges", float64(rp.liveEdges), "count")

	set("nnt.apply_ms_per_step", perStep(rp.apply), "ms")
	set("nnt.ops_per_step", float64(traced.Ops)/steps, "count")
	set("nnt.nodes", float64(rp.nodes), "count")

	set("npv.seal_ms_per_step", perStep(rp.seal), "ms")
	set("npv.dirty_vertices_per_step", float64(rp.dirty)/steps, "count")
	set("npv.dominance_tests_per_step", float64(tests1-tests0)/steps, "count")
	set("npv.sig_reject_share", share(float64(sig1-sig0), float64(tests1-tests0)), "ratio")

	set("qindex.affected_ms_per_step", perStep(rp.affected), "ms")
	set("qindex.candidates_per_step", float64(rp.qCandidates)/steps, "count")
	set("qindex.pruned_share", share(float64(rp.qPruned), float64(rp.qCandidates+rp.qPruned)), "ratio")
	set("qindex.postings", float64(rp.postings), "count")

	set("factor.evals_per_step", float64(evals1-evals0)/steps, "count")
	set("factor.lookups_per_step", float64(lookups1-lookups0)/steps, "count")
	set("factor.short_reject_share", share(float64(rejects1-rejects0), float64(lookups1-lookups0)), "ratio")

	busy := perStep(sp.total["join.apply_all"])
	set("join.apply_all_busy_ms_per_step", busy, "ms")
	set("join.apply_all_wall_ms_per_step", perStep(sp.applyWall), "ms")
	set("join.shard_skew", sp.applySkew, "ratio")
	// A residual, not a measurement: what a one-worker production filter's
	// Apply spends beyond the bare forest maintenance and seal the replay
	// times on their own (dominance counters, posting scans, factor memo).
	set("join.eval_ms_per_step", perStep(rp.filter-rp.apply-rp.seal), "ms")
	set("join.candidates_ms_per_read", share(ms(sp.totalUnder["join.candidates<core.candidates"]), reads), "ms")
	set("join.final_precision", share(float64(rp.exactFinal), float64(len(finalPairs.Pairs))), "ratio")

	set("go.alloc_kb_per_step", (rt1.allocBytes-rt0.allocBytes)/1024/steps, "KiB")
	set("go.allocs_per_step", (rt1.allocObjects-rt0.allocObjects)/steps, "count")
	set("go.gc_cpu_share", share(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU), "ratio")
	set("go.heap_live_mb", rt1.heapLive/(1<<20), "MiB")

	// What the driver saw but no span covers (request construction, the
	// response buffer, the recorder itself), and what the decorators cost.
	set("trace.unexplained_share", share(traced.requestMs()-ms(sp.selfSum), traced.requestMs()), "ratio")
	set("trace.overhead_share", share(traced.requestMs()-plain.requestMs(), plain.requestMs()), "ratio")
	return m, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// spanSummary aggregates the traced pass's spans by name.
type spanSummary struct {
	total      map[string]time.Duration // Σ duration per name
	self       map[string]time.Duration // Σ self time per name
	each       map[string][]float64     // every duration per name, ms
	selfEach   map[string][]float64     // every self time per name, ms
	under      map[string]int           // span count per "name<parent name"
	totalUnder map[string]time.Duration // Σ duration per "name<parent name"
	selfSum    time.Duration            // Σ self time over all spans
	applyWall  time.Duration            // union of the join.apply_all intervals
	applySkew  float64                  // mean over steps of max ÷ mean concurrent apply_all
}

func summarize(spans []measure.Span) spanSummary {
	s := spanSummary{
		total: map[string]time.Duration{}, self: map[string]time.Duration{},
		each: map[string][]float64{}, selfEach: map[string][]float64{},
		under: map[string]int{}, totalUnder: map[string]time.Duration{},
	}
	self := measure.SelfTimes(spans)
	var applies []measure.Span
	for i, sp := range spans {
		d := time.Duration(sp.End - sp.Start)
		s.total[sp.Name] += d
		s.self[sp.Name] += time.Duration(self[i])
		s.each[sp.Name] = append(s.each[sp.Name], ms(d))
		s.selfEach[sp.Name] = append(s.selfEach[sp.Name], ms(time.Duration(self[i])))
		s.selfSum += time.Duration(self[i])
		if sp.Parent >= 0 {
			key := sp.Name + "<" + spans[sp.Parent].Name
			s.under[key]++
			s.totalUnder[key] += d
		}
		if sp.Name == "join.apply_all" {
			applies = append(applies, sp)
		}
	}
	// Concurrent apply_all spans (one per shard) form a cluster per step;
	// sequential ones (the steps of a batch) are clusters of one.
	sort.Slice(applies, func(i, j int) bool { return applies[i].Start < applies[j].Start })
	clusters, skewSum := 0, 0.0
	for i := 0; i < len(applies); {
		end, sum, longest, n := applies[i].End, int64(0), int64(0), 0
		j := i
		for ; j < len(applies) && (j == i || applies[j].Start < end); j++ {
			d := applies[j].End - applies[j].Start
			sum += d
			longest = max(longest, d)
			end = max(end, applies[j].End)
			n++
		}
		s.applyWall += time.Duration(end - applies[i].Start)
		if sum > 0 {
			skewSum += float64(longest) * float64(n) / float64(sum)
			clusters++
		}
		i = j
	}
	if clusters > 0 {
		s.applySkew = skewSum / float64(clusters)
	}
	return s
}

// writeSpans dumps the recorded spans for offline inspection.
func writeSpans(path string, spans []measure.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
