package cluster

// The in-process cluster harness: workers and the coordinator talk over a
// memory "network" (memNet) that dispatches real *http.Request traffic to
// real handlers through httptest recorders — the full HTTP surface is
// exercised (routing, status codes, headers, JSON bodies) with none of the
// socket nondeterminism. A FaultTransport in front of the net gives tests
// partitions and drops; killing a worker is Crash() + detach, exactly the
// visibility a dead process has.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
	"time"

	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/obs"
	"nntstream/internal/retry"
	"nntstream/internal/server"
	"nntstream/internal/wal"
)

// errUnreachable is what memNet returns for detached (dead) addresses — the
// moral equivalent of connection refused.
var errUnreachable = errors.New("memnet: connection refused")

// memNet routes transport calls to in-process handlers by address.
type memNet struct {
	mu       chan struct{} // 1-buffered semaphore; avoids copying sync.Mutex rules into a test helper
	handlers map[string]http.Handler
}

func newMemNet() *memNet {
	n := &memNet{mu: make(chan struct{}, 1), handlers: make(map[string]http.Handler)}
	return n
}

func (n *memNet) attach(addr string, h http.Handler) {
	n.mu <- struct{}{}
	n.handlers[addr] = h
	<-n.mu
}

func (n *memNet) detach(addr string) {
	n.mu <- struct{}{}
	delete(n.handlers, addr)
	<-n.mu
}

func (n *memNet) Do(ctx context.Context, addr, method, path string, in, out any) (http.Header, error) {
	n.mu <- struct{}{}
	h := n.handlers[addr]
	<-n.mu
	if h == nil {
		return nil, fmt.Errorf("%w: %s", errUnreachable, addr)
	}
	var body io.Reader = http.NoBody
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(data)
	}
	req := httptest.NewRequest(method, "http://"+addr+path, body).WithContext(ctx)
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	res := rec.Result()
	defer res.Body.Close()
	if res.StatusCode < 200 || res.StatusCode > 299 {
		var remote struct {
			Error string `json:"error"`
		}
		msg := res.Status
		if json.NewDecoder(res.Body).Decode(&remote) == nil && remote.Error != "" {
			msg = remote.Error
		}
		return res.Header, &StatusError{Code: res.StatusCode, Msg: msg}
	}
	if out != nil {
		if err := json.NewDecoder(res.Body).Decode(out); err != nil {
			return res.Header, err
		}
	}
	return res.Header, nil
}

// instantPolicy retries without real sleeping.
func instantPolicy() retry.Policy {
	return retry.Policy{
		MaxAttempts: 3,
		Sleep:       func(ctx context.Context, d time.Duration) error { return ctx.Err() },
	}
}

// testCluster wires N workers and a coordinator over one faulty memNet. One
// registry backs every node's metrics, so tests see cluster-wide totals
// (each real process would scrape its own).
type testCluster struct {
	t       *testing.T
	dir     string
	cfg     Config
	factory core.FilterFactory
	pool    int // each group engine's evaluation-pool width (0 = GOMAXPROCS)
	net     *memNet
	fault   *FaultTransport
	metrics *Metrics
	workers map[string]*Worker
	coord   *Coordinator
}

func newTestCluster(t *testing.T, factory core.FilterFactory, pool, workers, groups, rf int) *testCluster {
	t.Helper()
	registry := obs.NewRegistry()
	tc := &testCluster{
		t:       t,
		dir:     t.TempDir(),
		factory: factory,
		pool:    pool,
		net:     newMemNet(),
		metrics: NewMetrics(registry),
		workers: make(map[string]*Worker),
	}
	tc.fault = NewFaultTransport(tc.net, 1)
	var specs []WorkerSpec
	for i := 0; i < workers; i++ {
		id := fmt.Sprintf("w%d", i)
		specs = append(specs, WorkerSpec{ID: id, Addr: id})
		tc.startWorker(id)
	}
	tc.cfg = Config{Workers: specs, Groups: groups, ReplicationFactor: rf}
	coord, err := NewCoordinator(tc.cfg, CoordinatorOptions{
		Transport: &RetryTransport{
			Next:     tc.fault,
			Policy:   instantPolicy(),
			Cooldown: time.Nanosecond, // circuits re-probe immediately so revivals are seen
			Metrics:  tc.metrics,
		},
		MissThreshold: 2,
		Registry:      registry,
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	if err := coord.Start(context.Background()); err != nil {
		t.Fatalf("coordinator start: %v", err)
	}
	tc.coord = coord
	t.Cleanup(func() {
		coord.Stop()
		for _, w := range tc.workers {
			w.Crash()
		}
	})
	return tc
}

// startWorker opens (or re-opens, after kill) the worker and plugs it into
// the net. Engines recover from the worker's on-disk state.
func (tc *testCluster) startWorker(id string) *Worker {
	tc.t.Helper()
	w := NewWorker(id, filepath.Join(tc.dir, id), WorkerOptions{
		Factory:     tc.factory,
		EvalWorkers: tc.pool,
		Fsync:       wal.SyncNever,
		Transport:   tc.fault,
		Metrics:     tc.metrics,
	})
	tc.workers[id] = w
	tc.net.attach(id, w.Handler())
	return w
}

// kill hard-crashes a worker: engines abandoned, address unreachable.
func (tc *testCluster) kill(id string) {
	tc.t.Helper()
	if err := tc.workers[id].Crash(); err != nil {
		tc.t.Fatalf("crashing %s: %v", id, err)
	}
	tc.net.detach(id)
}

// pollUntilDead runs detection rounds until the coordinator declares the
// worker dead and has had a promotion pass.
func (tc *testCluster) pollUntilDead(id string) {
	tc.t.Helper()
	for i := 0; i < 5; i++ {
		tc.coord.PollOnce(context.Background())
		tc.coord.mu.Lock()
		dead := !tc.coord.workers[id].alive
		tc.coord.mu.Unlock()
		if dead {
			return
		}
	}
	tc.t.Fatalf("worker %s never declared dead", id)
}

// primaryOf reads the coordinator's current leader for a group.
func (tc *testCluster) primaryOf(g int) string {
	tc.coord.mu.Lock()
	defer tc.coord.mu.Unlock()
	return tc.coord.groups[g].primary
}

// do sends one request through the coordinator's public handler.
func (tc *testCluster) do(method, path string, in, out any) (int, http.Header) {
	tc.t.Helper()
	var body io.Reader = http.NoBody
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			tc.t.Fatalf("marshal: %v", err)
		}
		body = bytes.NewReader(data)
	}
	req := httptest.NewRequest(method, "http://coordinator"+path, body)
	rec := httptest.NewRecorder()
	tc.coord.Handler().ServeHTTP(rec, req)
	res := rec.Result()
	defer res.Body.Close()
	if out != nil && res.StatusCode >= 200 && res.StatusCode <= 299 {
		if err := json.NewDecoder(res.Body).Decode(out); err != nil {
			tc.t.Fatalf("decode %s %s: %v", method, path, err)
		}
	}
	return res.StatusCode, res.Header
}

// --- workload scripting ---------------------------------------------------

type clusterOp struct {
	kind    string // "query", "stream", "step", "rmquery"
	graph   server.WireGraph
	changes map[string][]server.WireOp
	query   int
}

// lineGraph builds a path v0-v1-...-vn with the given vertex labels; edge
// i-(i+1) carries label (labels[i]+labels[i+1]).
func lineGraph(labels ...int) server.WireGraph {
	var g server.WireGraph
	for i, l := range labels {
		g.Vertices = append(g.Vertices, server.WireVertex{ID: int32(i), Label: uint16(l)})
	}
	for i := 0; i+1 < len(labels); i++ {
		g.Edges = append(g.Edges, server.WireEdge{
			U: int32(i), V: int32(i + 1), Label: uint16(labels[i] + labels[i+1]),
		})
	}
	return g
}

// ins/del build step operations.
func ins(u, ul, v, vl, el int) server.WireOp {
	return server.WireOp{Op: "ins", U: int32(u), V: int32(v),
		ULabel: uint16(ul), VLabel: uint16(vl), ELabel: uint16(el)}
}

func del(u, v int) server.WireOp {
	return server.WireOp{Op: "del", U: int32(u), V: int32(v)}
}

// standardWorkload is the shared script: queries first (registration seals at
// the first stream), then streams, then steps that grow and shrink them,
// and a query removal before the last step.
func standardWorkload() []clusterOp {
	ops := []clusterOp{
		{kind: "query", graph: lineGraph(1, 2)},
		{kind: "query", graph: lineGraph(2, 3, 1)},
		{kind: "query", graph: lineGraph(3, 1)},
		{kind: "stream", graph: lineGraph(1, 2, 3)},
		{kind: "stream", graph: lineGraph(2, 3)},
		{kind: "stream", graph: lineGraph(3, 1, 2)},
		{kind: "step", changes: map[string][]server.WireOp{
			"0": {ins(10, 1, 11, 2, 3)},
			"1": {ins(20, 2, 21, 3, 5)},
		}},
		{kind: "step", changes: map[string][]server.WireOp{
			"2": {ins(30, 3, 31, 1, 4), ins(31, 1, 32, 2, 3)},
		}},
		{kind: "step", changes: map[string][]server.WireOp{
			"0": {del(0, 1)},
			"1": {ins(21, 3, 22, 1, 4)},
		}},
	}
	ops = append(ops, clusterOp{kind: "rmquery", query: 1})
	ops = append(ops, clusterOp{kind: "step", changes: map[string][]server.WireOp{
		"2": {del(30, 31)},
		"0": {ins(11, 2, 12, 3, 5)},
	}})
	return ops
}

// applyOp drives one op through the coordinator; returns the HTTP status.
func (tc *testCluster) applyOp(op clusterOp) int {
	tc.t.Helper()
	switch op.kind {
	case "query":
		status, _ := tc.do(http.MethodPost, "/v1/queries", graphRequest{Graph: op.graph}, nil)
		return status
	case "stream":
		status, _ := tc.do(http.MethodPost, "/v1/streams", graphRequest{Graph: op.graph}, nil)
		return status
	case "step":
		status, _ := tc.do(http.MethodPost, "/v1/step", stepRequest{Changes: op.changes}, nil)
		return status
	case "rmquery":
		status, _ := tc.do(http.MethodDelete, "/v1/queries/"+strconv.Itoa(op.query), nil, nil)
		return status
	default:
		tc.t.Fatalf("unknown op kind %q", op.kind)
		return 0
	}
}

// refEngine is the single-node oracle the cluster must match bit for bit: a
// sequential engine, whatever pool width the cluster's engines run.
type refEngine struct {
	t   *testing.T
	eng *core.Monitor
}

func newRefEngine(t *testing.T, factory core.FilterFactory) *refEngine {
	return &refEngine{t: t, eng: core.NewMonitor(factory())}
}

func (r *refEngine) apply(op clusterOp) {
	r.t.Helper()
	switch op.kind {
	case "query":
		g, err := op.graph.ToGraph()
		if err == nil {
			_, err = r.eng.AddQuery(g)
		}
		if err != nil {
			r.t.Fatalf("reference AddQuery: %v", err)
		}
	case "stream":
		g, err := op.graph.ToGraph()
		if err == nil {
			_, err = r.eng.AddStream(g)
		}
		if err != nil {
			r.t.Fatalf("reference AddStream: %v", err)
		}
	case "step":
		changes := make(map[core.StreamID]graph.ChangeSet, len(op.changes))
		for key, ops := range op.changes {
			sid, _ := strconv.Atoi(key)
			var cs graph.ChangeSet
			for _, wop := range ops {
				cop, err := wop.ToChangeOp()
				if err != nil {
					r.t.Fatalf("reference op: %v", err)
				}
				cs = append(cs, cop)
			}
			changes[core.StreamID(sid)] = cs
		}
		if _, err := r.eng.StepAll(changes); err != nil {
			r.t.Fatalf("reference StepAll: %v", err)
		}
	case "rmquery":
		if err := r.eng.RemoveQuery(core.QueryID(op.query)); err != nil {
			r.t.Fatalf("reference RemoveQuery: %v", err)
		}
	}
}

// candidates reads the reference candidate set in wire form, sorted.
func (r *refEngine) candidates() []server.WirePair {
	pairs := slices.Clone(r.eng.Candidates())
	slices.SortFunc(pairs, core.ComparePairs)
	out := make([]server.WirePair, 0, len(pairs))
	for _, p := range pairs {
		out = append(out, server.WirePair{Stream: int(p.Stream), Query: int(p.Query)})
	}
	return out
}

// clusterCandidates reads the cluster's merged candidate set.
func (tc *testCluster) clusterCandidates() ([]server.WirePair, http.Header) {
	tc.t.Helper()
	var resp WirePairs
	status, hdr := tc.do(http.MethodGet, "/v1/candidates", nil, &resp)
	if status != http.StatusOK {
		tc.t.Fatalf("candidates: status %d", status)
	}
	return resp.Pairs, hdr
}

func wirePairsEqual(a, b []server.WirePair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
