package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/join"
	"nntstream/internal/server"
)

// filterCases are the paper's NPV filters the cluster must not perturb.
var filterCases = []struct {
	name    string
	factory core.FilterFactory
}{
	{"NL", func() core.Filter { return join.NewNL(join.DefaultDepth) }},
	{"DSC", func() core.Filter { return join.NewDSC(join.DefaultDepth) }},
	{"Skyline", func() core.Filter { return join.NewSkyline(join.DefaultDepth) }},
}

func TestConfigValidate(t *testing.T) {
	cfg := Config{Workers: []WorkerSpec{{ID: "a", Addr: "a:1"}, {ID: "b", Addr: "b:1"}}}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if cfg.Groups != 2 || cfg.ReplicationFactor != DefaultReplicationFactor {
		t.Fatalf("defaults not applied: groups=%d rf=%d", cfg.Groups, cfg.ReplicationFactor)
	}
	dup := Config{Workers: []WorkerSpec{{ID: "a", Addr: "a:1"}, {ID: "a", Addr: "a:2"}}}
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate worker id accepted")
	}
	over := Config{Workers: []WorkerSpec{{ID: "a", Addr: "a:1"}}, ReplicationFactor: 5}
	if err := over.Validate(); err != nil || over.ReplicationFactor != 1 {
		t.Fatalf("RF not capped at worker count: rf=%d err=%v", over.ReplicationFactor, err)
	}
}

func TestStreamIDMapping(t *testing.T) {
	cfg := Config{Workers: []WorkerSpec{{ID: "a", Addr: "a:1"}, {ID: "b", Addr: "b:1"}, {ID: "c", Addr: "c:1"}}}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	for global := int64(0); global < 20; global++ {
		g := cfg.GroupOf(global)
		local := cfg.LocalOf(global)
		if back := cfg.GlobalOf(g, local); back != global {
			t.Fatalf("roundtrip: global %d → (g=%d, local=%d) → %d", global, g, local, back)
		}
	}
	// Sequential global IDs fill each group's local sequence without holes —
	// the property that makes cluster IDs line up with a single-node run.
	next := make(map[int]int64)
	for global := int64(0); global < 30; global++ {
		g := cfg.GroupOf(global)
		if cfg.LocalOf(global) != next[g] {
			t.Fatalf("global %d lands at local %d in group %d, want %d",
				global, cfg.LocalOf(global), g, next[g])
		}
		next[g]++
	}
}

// poolWidths are the group-engine evaluation-pool widths the drills run at:
// sequential, and a pool wider than the machine's two cores. Subtests label
// the width with their historical "shards=" key so test IDs stay stable.
var poolWidths = []int{1, 3}

// TestClusterMatchesSingleNode is the no-fault baseline: a 3-worker cluster
// answers exactly like one engine fed the same operations.
func TestClusterMatchesSingleNode(t *testing.T) {
	for _, fc := range filterCases {
		for _, pool := range poolWidths {
			t.Run(fmt.Sprintf("%s/shards=%d", fc.name, pool), func(t *testing.T) {
				tc := newTestCluster(t, fc.factory, pool, 3, 2, 2)
				ref := newRefEngine(t, fc.factory)
				for i, op := range standardWorkload() {
					if status := tc.applyOp(op); status < 200 || status > 299 {
						t.Fatalf("op %d (%s): status %d", i, op.kind, status)
					}
					ref.apply(op)
				}
				got, hdr := tc.clusterCandidates()
				if hdr.Get(HeaderStale) != "" {
					t.Fatal("healthy cluster served a stale read")
				}
				if want := ref.candidates(); !wirePairsEqual(got, want) {
					t.Fatalf("cluster diverged from single node:\n got %v\nwant %v", got, want)
				}
			})
		}
	}
}

// TestKillPrimaryAtEveryBoundary is the tentpole harness: for every
// WAL-record boundary in the workload (each client write appends exactly one
// record per group), kill the worker currently leading group 0 right after
// that write commits, let the failure detector promote, finish the workload,
// and require the final answers bit-identical to the single-node reference.
// RF=2 means the promoted replica's WAL is the only surviving copy of the
// group history — any lost or reordered record shows up as a divergence.
func TestKillPrimaryAtEveryBoundary(t *testing.T) {
	for _, fc := range filterCases {
		for _, pool := range poolWidths {
			ops := standardWorkload()
			for kill := 1; kill <= len(ops); kill++ {
				t.Run(fmt.Sprintf("%s/shards=%d/kill=%d", fc.name, pool, kill), func(t *testing.T) {
					tc := newTestCluster(t, fc.factory, pool, 3, 2, 2)
					ref := newRefEngine(t, fc.factory)
					for i, op := range ops {
						if status := tc.applyOp(op); status < 200 || status > 299 {
							t.Fatalf("op %d (%s): status %d", i, op.kind, status)
						}
						ref.apply(op)
						if i+1 == kill {
							victim := tc.primaryOf(0)
							tc.kill(victim)
							tc.pollUntilDead(victim)
						}
					}
					if fails := tc.coord.Metrics().Failovers.Value(); fails == 0 {
						t.Fatal("no failover recorded after killing a primary")
					}
					got, _ := tc.clusterCandidates()
					if want := ref.candidates(); !wirePairsEqual(got, want) {
						t.Fatalf("post-failover answers diverged:\n got %v\nwant %v", got, want)
					}
				})
			}
		}
	}
}

// TestKilledPrimaryRejoins kills a primary mid-workload, finishes it, then
// restarts the dead worker from its surviving directory: the coordinator
// must re-bootstrap it (its WAL is stale history now) and resume replicating
// to it, ending with every worker converged.
func TestKilledPrimaryRejoins(t *testing.T) {
	factory := filterCases[0].factory
	tc := newTestCluster(t, factory, 0, 3, 3, 2)
	ref := newRefEngine(t, factory)
	ops := standardWorkload()
	half := len(ops) / 2
	for i, op := range ops[:half] {
		if status := tc.applyOp(op); status/100 != 2 {
			t.Fatalf("op %d: status %d", i, status)
		}
		ref.apply(op)
	}
	victim := tc.primaryOf(0)
	tc.kill(victim)
	tc.pollUntilDead(victim)
	for i, op := range ops[half:] {
		if status := tc.applyOp(op); status/100 != 2 {
			t.Fatalf("op %d after failover: status %d", half+i, status)
		}
		ref.apply(op)
	}

	tc.startWorker(victim)
	tc.coord.PollOnce(context.Background()) // sees it alive again, rejoins + syncs
	tc.coord.SyncAll(context.Background())

	got, _ := tc.clusterCandidates()
	if want := ref.candidates(); !wirePairsEqual(got, want) {
		t.Fatalf("post-rejoin answers diverged:\n got %v\nwant %v", got, want)
	}
	if installs := tc.coord.Metrics().SnapshotInstalls.Value(); installs == 0 {
		t.Fatal("rejoin did not re-bootstrap the returned worker")
	}
	// Every replica of every group must sit at the same applied LSN as its
	// primary once the dust settles.
	assertReplicasConverged(t, tc)
}

// assertReplicasConverged checks that all live holders of each group report
// the same applied LSN.
func assertReplicasConverged(t *testing.T, tc *testCluster) {
	t.Helper()
	lsn := make(map[int]map[uint64]bool)
	for id, w := range tc.workers {
		var st WireStatus
		if _, err := tc.net.Do(context.Background(), id, http.MethodGet, "/cluster/status", nil, &st); err != nil {
			continue // dead worker
		}
		_ = w
		for _, gs := range st.Groups {
			if lsn[gs.Group] == nil {
				lsn[gs.Group] = make(map[uint64]bool)
			}
			lsn[gs.Group][gs.AppliedLSN] = true
		}
	}
	for g, set := range lsn {
		if len(set) != 1 {
			t.Fatalf("group %d holders disagree on applied LSN: %v", g, set)
		}
	}
}

// TestRandomizedPartitionHeal runs a seeded schedule of writes interleaved
// with partitioning and healing workers; after the final heal the cluster
// must answer exactly like the single-node reference and all replicas must
// converge. Writes that fail during a disruption are retried until the
// idempotent broadcast lands — the client-visible contract.
func TestRandomizedPartitionHeal(t *testing.T) {
	for _, fc := range filterCases {
		t.Run(fc.name, func(t *testing.T) {
			tc := newTestCluster(t, fc.factory, 0, 3, 3, 2)
			ref := newRefEngine(t, fc.factory)
			rng := rand.New(rand.NewSource(42))
			ctx := context.Background()

			heal := func() {
				tc.fault.Heal()
				for i := 0; i < 4; i++ {
					tc.coord.PollOnce(ctx)
				}
				tc.coord.SyncAll(ctx)
			}
			mustApply := func(op clusterOp) {
				for attempt := 0; attempt < 10; attempt++ {
					if status := tc.applyOp(op); status/100 == 2 {
						ref.apply(op)
						return
					}
					// Writes bounce while a partition is being detected;
					// detection + promotion unblocks them.
					tc.coord.PollOnce(ctx)
					if attempt == 6 {
						heal()
					}
				}
				t.Fatalf("op %s never succeeded", op.kind)
			}

			for _, op := range standardWorkload()[:6] { // queries + streams
				mustApply(op)
			}
			streams := 3
			for round := 0; round < 30; round++ {
				switch r := rng.Intn(10); {
				case r < 2: // partition a random worker
					id := fmt.Sprintf("w%d", rng.Intn(3))
					tc.fault.Partition(id)
					for i := 0; i < 3; i++ {
						tc.coord.PollOnce(ctx)
					}
				case r < 4:
					heal()
				default: // a step touching a random stream
					sid := rng.Intn(streams)
					u := 100 + round
					mustApply(clusterOp{kind: "step", changes: map[string][]server.WireOp{
						fmt.Sprintf("%d", sid): {ins(u, u%3+1, u+1, (u+1)%3+1, 2)},
					}})
				}
			}
			heal()

			got, hdr := tc.clusterCandidates()
			if hdr.Get(HeaderStale) != "" {
				t.Fatal("healed cluster still serving stale reads")
			}
			if want := ref.candidates(); !wirePairsEqual(got, want) {
				t.Fatalf("post-heal answers diverged:\n got %v\nwant %v", got, want)
			}
			assertReplicasConverged(t, tc)
		})
	}
}

// TestDegradedMode drives a group into the no-safe-replica corner: the
// replica is partitioned (falls behind the acknowledged watermark), then the
// primary dies. The coordinator must refuse writes with 503 + Retry-After,
// serve reads stale with explicit headers, and recover cleanly when the old
// primary returns.
func TestDegradedMode(t *testing.T) {
	factory := filterCases[0].factory
	tc := newTestCluster(t, factory, 0, 2, 1, 2) // one group on two workers
	ref := newRefEngine(t, factory)
	ctx := context.Background()

	setup := standardWorkload()[:4] // 3 queries + 1 stream
	for _, op := range setup {
		if status := tc.applyOp(op); status/100 != 2 {
			t.Fatalf("setup op %s: status %d", op.kind, status)
		}
		ref.apply(op)
	}

	primary := tc.primaryOf(0)
	replica := "w0"
	if primary == "w0" {
		replica = "w1"
	}

	// Cut the replica off and commit more writes: the acknowledged watermark
	// moves past anything the replica holds.
	tc.fault.Partition(replica)
	behindOp := clusterOp{kind: "step", changes: map[string][]server.WireOp{
		"0": {ins(50, 2, 51, 3, 5)},
	}}
	if status := tc.applyOp(behindOp); status/100 != 2 {
		t.Fatalf("write with partitioned replica: status %d", status)
	}
	ref.apply(behindOp)
	if tc.coord.Metrics().RecordsShipped.Value() == 0 {
		t.Fatal("no records were ever shipped to the replica")
	}

	// Primary dies; the lagging replica is not promotable.
	tc.fault.Heal(replica)
	tc.kill(primary)
	tc.pollUntilDead(primary)

	if tc.coord.Metrics().Failovers.Value() != 0 {
		t.Fatal("coordinator promoted a replica that misses acknowledged writes")
	}
	status, hdr := tc.do(http.MethodPost, "/v1/step", stepRequest{}, nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("degraded write: status %d, want 503", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("degraded write rejection missing Retry-After")
	}
	if tc.coord.Metrics().RejectedWrites.Value() == 0 {
		t.Fatal("rejected write not counted")
	}

	pairs, hdr := tc.clusterCandidates()
	if hdr.Get(HeaderStale) != "true" {
		t.Fatal("degraded read not marked stale")
	}
	if hdr.Get(HeaderStaleLag) == "" {
		t.Fatal("stale read missing lag header")
	}
	if tc.coord.Metrics().StaleReads.Value() == 0 {
		t.Fatal("stale read not counted")
	}
	if tc.coord.Metrics().ReplicationLag.Value() == 0 {
		t.Fatal("lagging replica not reflected in the replication-lag gauge")
	}
	_ = pairs // stale contents are the replica's last consistent view

	// The old primary returns with its WAL intact: the group heals, writes
	// resume, and the answers line up with the reference again.
	tc.startWorker(primary)
	for i := 0; i < 3; i++ {
		tc.coord.PollOnce(ctx)
	}
	tc.coord.SyncAll(ctx)
	finalOp := clusterOp{kind: "step", changes: map[string][]server.WireOp{
		"0": {ins(51, 3, 52, 1, 4)},
	}}
	if status := tc.applyOp(finalOp); status/100 != 2 {
		t.Fatalf("write after primary returned: status %d", status)
	}
	ref.apply(finalOp)
	got, hdr := tc.clusterCandidates()
	if hdr.Get(HeaderStale) != "" {
		t.Fatal("recovered cluster still stale")
	}
	if want := ref.candidates(); !wirePairsEqual(got, want) {
		t.Fatalf("post-recovery answers diverged:\n got %v\nwant %v", got, want)
	}
	// With every replica caught up, the next poll zeroes the lag gauge.
	tc.coord.PollOnce(ctx)
	if lag := tc.coord.Metrics().ReplicationLag.Value(); lag != 0 {
		t.Fatalf("replication lag %v after full recovery, want 0", lag)
	}
}

// TestClusterMetricsExposition checks the coordinator's /v1/metrics surface
// carries the cluster instruments after a failover exercised them.
func TestClusterMetricsExposition(t *testing.T) {
	tc := newTestCluster(t, filterCases[0].factory, 0, 3, 2, 2)
	for _, op := range standardWorkload()[:6] {
		if status := tc.applyOp(op); status/100 != 2 {
			t.Fatalf("op %s: status %d", op.kind, status)
		}
	}
	victim := tc.primaryOf(0)
	tc.kill(victim)
	tc.pollUntilDead(victim)

	req := httptest.NewRequest(http.MethodGet, "http://c/v1/metrics", nil)
	rec := httptest.NewRecorder()
	tc.coord.Handler().ServeHTTP(rec, req)
	body := rec.Body.String()
	for _, name := range []string{
		"nntstream_cluster_workers_alive",
		"nntstream_cluster_failovers_total",
		"nntstream_cluster_heartbeat_misses_total",
		"nntstream_cluster_records_shipped_total",
		"nntstream_cluster_replication_lag_records",
	} {
		if !strings.Contains(body, name) {
			t.Fatalf("metrics exposition missing %s:\n%s", name, body)
		}
	}
	m := tc.coord.Metrics()
	if m.Failovers.Value() == 0 || m.HeartbeatMisses.Value() == 0 || m.RecordsShipped.Value() == 0 {
		t.Fatalf("cluster counters not exercised: failovers=%d misses=%d shipped=%d",
			m.Failovers.Value(), m.HeartbeatMisses.Value(), m.RecordsShipped.Value())
	}
}

// TestCoordinatorRestartRecoversCounters restarts the coordinator (workers
// keep running) mid-workload: the replacement must rebuild its idempotency
// counters from worker state instead of starting at zero, where every
// subsequent write would look like an already-applied retry and be acked
// without being applied. The workload includes a removal so the test also
// pins recovery to the engines' ID allocators rather than live counts.
func TestCoordinatorRestartRecoversCounters(t *testing.T) {
	factory := filterCases[1].factory // DSC
	tc := newTestCluster(t, factory, 0, 3, 2, 2)
	ref := newRefEngine(t, factory)
	ops := standardWorkload()
	split := len(ops) - 1 // everything but the final step: 3 queries, 3 streams, 3 steps, 1 removal
	for i, op := range ops[:split] {
		if status := tc.applyOp(op); status/100 != 2 {
			t.Fatalf("op %d (%s): status %d", i, op.kind, status)
		}
		ref.apply(op)
	}

	tc.coord.Stop()
	coord, err := NewCoordinator(tc.cfg, CoordinatorOptions{
		Transport:     &RetryTransport{Next: tc.fault, Policy: instantPolicy(), Cooldown: time.Nanosecond},
		MissThreshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(context.Background()); err != nil {
		t.Fatalf("restarted coordinator: %v", err)
	}
	defer coord.Stop()
	tc.coord = coord

	coord.mu.Lock()
	queries, streams, steps := coord.queries, coord.streams, coord.steps
	coord.mu.Unlock()
	if queries != 3 || streams != 3 || steps != 3 {
		t.Fatalf("recovered counters queries=%d streams=%d steps=%d, want 3/3/3",
			queries, streams, steps)
	}

	for i, op := range ops[split:] {
		if status := tc.applyOp(op); status/100 != 2 {
			t.Fatalf("op %d (%s) after restart: status %d", split+i, op.kind, status)
		}
		ref.apply(op)
	}

	// Fresh registrations must get the same IDs the single-node engine hands
	// out — the observable proof the counters were not reset.
	var qid WireID
	if status, _ := tc.do(http.MethodPost, "/v1/queries", graphRequest{Graph: lineGraph(1, 3)}, &qid); status/100 != 2 {
		t.Fatalf("query after restart: status %d", status)
	}
	refQ, err := ref.eng.AddQuery(mustGraph(t, lineGraph(1, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if qid.ID != int(refQ) {
		t.Fatalf("post-restart query id %d, reference %d", qid.ID, refQ)
	}
	var sid WireID
	if status, _ := tc.do(http.MethodPost, "/v1/streams", graphRequest{Graph: lineGraph(2, 1)}, &sid); status/100 != 2 {
		t.Fatalf("stream after restart: status %d", status)
	}
	refS, err := ref.eng.AddStream(mustGraph(t, lineGraph(2, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if sid.ID != int(refS) {
		t.Fatalf("post-restart stream id %d, reference %d", sid.ID, refS)
	}

	got, _ := tc.clusterCandidates()
	if want := ref.candidates(); !wirePairsEqual(got, want) {
		t.Fatalf("post-restart answers diverged:\n got %v\nwant %v", got, want)
	}
}

func mustGraph(t *testing.T, wg server.WireGraph) *graph.Graph {
	t.Helper()
	g, err := wg.ToGraph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// pathFailTransport fails the next N calls to an exact path — the surgical
// tool for manufacturing a partial broadcast (one group applied, the next
// delivery lost).
type pathFailTransport struct {
	next Transport
	mu   sync.Mutex
	fail map[string]int
}

func (p *pathFailTransport) failNext(path string, n int) {
	p.mu.Lock()
	p.fail[path] = n
	p.mu.Unlock()
}

func (p *pathFailTransport) Do(ctx context.Context, addr, method, path string, in, out any) (http.Header, error) {
	p.mu.Lock()
	if p.fail[path] > 0 {
		p.fail[path]--
		p.mu.Unlock()
		return nil, fmt.Errorf("injected failure for %s", path)
	}
	p.mu.Unlock()
	return p.next.Do(ctx, addr, method, path, in, out)
}

// TestPartialBroadcastConflictSurfaces drives the half-applied-broadcast
// corner through the coordinator: after a broadcast that only group 0
// applied, a *different* write reusing the idempotency key must surface 409
// (group 0 applied another payload there), while a retry of the original
// payload completes the broadcast.
func TestPartialBroadcastConflictSurfaces(t *testing.T) {
	tc := newTestCluster(t, filterCases[0].factory, 0, 3, 2, 2)
	tc.coord.Stop()
	pf := &pathFailTransport{next: tc.net, fail: make(map[string]int)}
	coord, err := NewCoordinator(tc.cfg, CoordinatorOptions{Transport: pf, MissThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer coord.Stop()
	tc.coord = coord

	pf.failNext("/cluster/groups/1/queries", 1)
	a, b := lineGraph(1, 2), lineGraph(2, 3)
	if status, _ := tc.do(http.MethodPost, "/v1/queries", graphRequest{Graph: a}, nil); status/100 == 2 {
		t.Fatalf("partial broadcast reported success: %d", status)
	}

	if status, _ := tc.do(http.MethodPost, "/v1/queries", graphRequest{Graph: b}, nil); status != http.StatusConflict {
		t.Fatalf("different payload reusing the key: status %d, want 409", status)
	}

	var resp WireID
	if status, _ := tc.do(http.MethodPost, "/v1/queries", graphRequest{Graph: a}, &resp); status/100 != 2 || resp.ID != 0 {
		t.Fatalf("retry of the original payload: status %d id %d, want 2xx id 0", status, resp.ID)
	}
}

// TestWorkerFingerprintConflict pins the per-kind fingerprint checks at the
// worker surface: for queries, streams, and steps, a reused idempotency key
// carrying a different payload is 409, and a genuine retry is acked.
func TestWorkerFingerprintConflict(t *testing.T) {
	tc := newTestCluster(t, filterCases[0].factory, 0, 3, 1, 1)
	ctx := context.Background()
	addr := tc.primaryOf(0)
	post := func(path string, in, out any) error {
		_, err := tc.net.Do(ctx, addr, http.MethodPost, path, in, out)
		return err
	}
	wantConflict := func(what string, err error) {
		t.Helper()
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusConflict {
			t.Fatalf("%s under a reused key: %v, want 409", what, err)
		}
	}

	qa, qb := lineGraph(1, 2), lineGraph(2, 3)
	var id WireID
	if err := post("/cluster/groups/0/queries", WireAddQuery{Graph: qa, Expect: 0, Fingerprint: fingerprintOf(qa)}, &id); err != nil {
		t.Fatalf("query apply: %v", err)
	}
	wantConflict("different query", post("/cluster/groups/0/queries",
		WireAddQuery{Graph: qb, Expect: 0, Fingerprint: fingerprintOf(qb)}, nil))
	if err := post("/cluster/groups/0/queries", WireAddQuery{Graph: qa, Expect: 0, Fingerprint: fingerprintOf(qa)}, &id); err != nil || id.ID != 0 {
		t.Fatalf("genuine query retry: id=%d err=%v", id.ID, err)
	}

	sa, sb := lineGraph(1, 2, 3), lineGraph(3, 2, 1)
	if err := post("/cluster/groups/0/streams", WireAddStream{Graph: sa, Expect: 0, Fingerprint: fingerprintOf(sa)}, &id); err != nil {
		t.Fatalf("stream apply: %v", err)
	}
	wantConflict("different stream", post("/cluster/groups/0/streams",
		WireAddStream{Graph: sb, Expect: 0, Fingerprint: fingerprintOf(sb)}, nil))
	if err := post("/cluster/groups/0/streams", WireAddStream{Graph: sa, Expect: 0, Fingerprint: fingerprintOf(sa)}, &id); err != nil || id.ID != 0 {
		t.Fatalf("genuine stream retry: id=%d err=%v", id.ID, err)
	}

	ca := map[string][]server.WireOp{"0": {ins(10, 1, 11, 2, 3)}}
	cb := map[string][]server.WireOp{"0": {ins(20, 2, 21, 3, 5)}}
	var pairs WirePairs
	if err := post("/cluster/groups/0/step", WireStep{Seq: 0, Changes: ca, Fingerprint: fingerprintOf(ca)}, &pairs); err != nil {
		t.Fatalf("step apply: %v", err)
	}
	wantConflict("different change set", post("/cluster/groups/0/step",
		WireStep{Seq: 0, Changes: cb, Fingerprint: fingerprintOf(cb)}, nil))
	if err := post("/cluster/groups/0/step", WireStep{Seq: 0, Changes: ca, Fingerprint: fingerprintOf(ca)}, &pairs); err != nil {
		t.Fatalf("genuine step retry: %v", err)
	}
}

// TestCoordinatorRelaysWorkerErrorStatus sends bad requests through the
// coordinator to the workers. The engine wraps its sentinel errors with %w,
// the worker maps them with server.StatusFor, and the coordinator must hand
// the worker's status back to the client rather than a 500.
func TestCoordinatorRelaysWorkerErrorStatus(t *testing.T) {
	wantStatus := func(tc *testCluster, what, method, path string, in any, want int) {
		t.Helper()
		if status, _ := tc.do(method, path, in, nil); status != want {
			t.Fatalf("%s: status %d, want %d", what, status, want)
		}
	}

	tc := newTestCluster(t, filterCases[1].factory, 0, 3, 2, 2)
	for i, op := range standardWorkload()[:6] { // 3 queries, 3 streams
		if status := tc.applyOp(op); status/100 != 2 {
			t.Fatalf("op %d (%s): status %d", i, op.kind, status)
		}
	}
	wantStatus(tc, "step on an unknown stream", http.MethodPost, "/v1/step",
		stepRequest{Changes: map[string][]server.WireOp{"9": {ins(40, 1, 41, 2, 3)}}}, http.StatusNotFound)

	// The coordinator screens unknown global stream IDs itself, so drive an
	// unknown group-local stream over its RPC path straight to the primary.
	_, err := tc.coord.transport.Do(context.Background(), tc.cfg.Addr(tc.primaryOf(0)), http.MethodPost,
		"/cluster/groups/0/step", WireStep{Seq: 0, Changes: map[string][]server.WireOp{"9": {ins(40, 1, 41, 2, 3)}}}, nil)
	if got := proxyStatus(err); got != http.StatusNotFound {
		t.Fatalf("worker step on an unknown stream: %v (relayed as %d), want 404", err, got)
	}
	wantStatus(tc, "removal of an unknown query", http.MethodDelete, "/v1/queries/42", nil,
		http.StatusNotFound)
}

// gatedTransport blocks status probes to one address until released —
// a worker that accepted the TCP connection and then went silent.
type gatedTransport struct {
	next    Transport
	entered chan struct{}
	release chan struct{}

	mu   sync.Mutex
	addr string
}

func (g *gatedTransport) gateOn(addr string) {
	g.mu.Lock()
	g.addr = addr
	g.mu.Unlock()
}

func (g *gatedTransport) Do(ctx context.Context, addr, method, path string, in, out any) (http.Header, error) {
	g.mu.Lock()
	gated := g.addr == addr && path == "/cluster/status"
	g.mu.Unlock()
	if gated {
		select {
		case g.entered <- struct{}{}:
		default:
		}
		<-g.release
	}
	return g.next.Do(ctx, addr, method, path, in, out)
}

// TestPollOnceDoesNotBlockDataPlane wedges a heartbeat probe mid-flight and
// requires client reads to keep completing: failure detection must wait on
// slow workers outside the coordinator's mutex.
func TestPollOnceDoesNotBlockDataPlane(t *testing.T) {
	tc := newTestCluster(t, filterCases[0].factory, 0, 3, 2, 2)
	for _, op := range standardWorkload()[:4] {
		if status := tc.applyOp(op); status/100 != 2 {
			t.Fatalf("setup op %s: status %d", op.kind, status)
		}
	}

	tc.coord.Stop()
	gate := &gatedTransport{next: tc.net, entered: make(chan struct{}, 1), release: make(chan struct{})}
	coord, err := NewCoordinator(tc.cfg, CoordinatorOptions{Transport: gate, MissThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer coord.Stop()
	tc.coord = coord

	gate.gateOn("w0")
	done := make(chan struct{})
	go func() {
		coord.PollOnce(context.Background())
		close(done)
	}()
	<-gate.entered // the w0 probe is in flight and hung

	read := make(chan int, 1)
	go func() {
		status, _ := tc.do(http.MethodGet, "/v1/candidates", nil, &WirePairs{})
		read <- status
	}()
	select {
	case status := <-read:
		if status != http.StatusOK {
			t.Fatalf("read during hung heartbeat: status %d", status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("data plane blocked behind a hung heartbeat probe")
	}
	close(gate.release)
	<-done
}

// hangingTransport wedges replicate deliveries (once armed) until the
// caller's context expires — a replica that stopped reading mid-connection.
type hangingTransport struct {
	next Transport
	mu   sync.Mutex
	hang bool
}

func (h *hangingTransport) setHang(v bool) {
	h.mu.Lock()
	h.hang = v
	h.mu.Unlock()
}

func (h *hangingTransport) Do(ctx context.Context, addr, method, path string, in, out any) (http.Header, error) {
	h.mu.Lock()
	hang := h.hang
	h.mu.Unlock()
	if hang && strings.HasSuffix(path, "/replicate") {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return h.next.Do(ctx, addr, method, path, in, out)
}

// TestShipTimeoutBoundsCommit hangs a replica after it was synced into the
// in-band shipping set: the next commit must return within the ship timeout
// with the replica marked lagging, not wedge the primary's commit lock.
func TestShipTimeoutBoundsCommit(t *testing.T) {
	net := newMemNet()
	hang := &hangingTransport{next: net}
	metrics := NewMetrics(newDetachedRegistry())
	dir := t.TempDir()
	primary := NewWorker("w0", filepath.Join(dir, "w0"), WorkerOptions{
		Factory:     filterCases[0].factory,
		Transport:   hang,
		ShipTimeout: 50 * time.Millisecond,
		Metrics:     metrics,
	})
	defer primary.Crash()
	net.attach("w0", primary.Handler())
	replica := NewWorker("w1", filepath.Join(dir, "w1"), WorkerOptions{
		Factory:   filterCases[0].factory,
		Transport: net,
	})
	defer replica.Crash()
	net.attach("w1", replica.Handler())

	ctx := context.Background()
	if _, err := net.Do(ctx, "w1", http.MethodPost, "/cluster/groups/0/role", WireRole{Role: RoleReplica}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Do(ctx, "w0", http.MethodPost, "/cluster/groups/0/role",
		WireRole{Role: RolePrimary, Replicas: []string{"w1"}}, nil); err != nil {
		t.Fatal(err)
	}
	// The sync round probes the replica's watermark and admits it to in-band
	// shipping; only then does a commit touch the transport at all.
	if _, err := net.Do(ctx, "w0", http.MethodPost, "/cluster/groups/0/sync", nil, nil); err != nil {
		t.Fatal(err)
	}

	hang.setHang(true)
	q := lineGraph(1, 2)
	start := time.Now()
	if _, err := net.Do(ctx, "w0", http.MethodPost, "/cluster/groups/0/queries",
		WireAddQuery{Graph: q, Expect: 0, Fingerprint: fingerprintOf(q)}, nil); err != nil {
		t.Fatalf("commit with hung replica: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("commit took %v with a hung replica, want ~ship timeout", elapsed)
	}
	if metrics.ShipFailures.Value() == 0 {
		t.Fatal("hung delivery not recorded as a ship failure")
	}
}

// TestHeartbeatLoop covers the background detection path end to end with a
// real ticker: kill a primary, wait for the loop to promote, write again.
func TestHeartbeatLoop(t *testing.T) {
	tc := newTestCluster(t, filterCases[0].factory, 0, 3, 2, 2)
	// Re-arm the coordinator with a fast loop (the harness default is manual).
	tc.coord.Stop()
	coord, err := NewCoordinator(tc.cfg, CoordinatorOptions{
		Transport:         &RetryTransport{Next: tc.fault, Policy: instantPolicy(), Cooldown: time.Nanosecond},
		MissThreshold:     2,
		HeartbeatInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer coord.Stop()
	tc.coord = coord

	for _, op := range standardWorkload()[:4] {
		if status := tc.applyOp(op); status/100 != 2 {
			t.Fatalf("op %s: status %d", op.kind, status)
		}
	}
	victim := tc.primaryOf(0)
	tc.kill(victim)
	deadline := time.Now().Add(10 * time.Second)
	for coord.Metrics().Failovers.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("heartbeat loop never promoted a replica")
		}
		time.Sleep(time.Millisecond)
	}
	if status := tc.applyOp(clusterOp{kind: "step", changes: map[string][]server.WireOp{
		"0": {ins(60, 1, 61, 2, 3)},
	}}); status/100 != 2 {
		t.Fatalf("write after loop-driven failover: status %d", status)
	}
}

// socketGet reads url over a real socket and checks that the body arrived
// in one piece under its Content-Length, not chunked.
func socketGet(t *testing.T, url string) (http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("GET %s: Content-Length %d, Transfer-Encoding %v, body %d bytes",
			url, resp.ContentLength, resp.TransferEncoding, len(body))
	}
	return resp.Header, body
}

// TestClusterResponsesCarryContentLength serves a worker and the coordinator
// over real sockets with a 5,000-pair answer, far over net/http's 2 KB
// response buffer: the worker's answer keeps its LSN header, the
// coordinator's merged answer equals a single node's (its empty answer
// byte for byte), and once the group is degraded the stale headers still go
// out with it.
func TestClusterResponsesCarryContentLength(t *testing.T) {
	factory := filterCases[2].factory
	tc := newTestCluster(t, factory, 1, 2, 1, 2) // one group on two workers
	ref := newRefEngine(t, factory)
	coord := httptest.NewServer(tc.coord.Handler())
	t.Cleanup(coord.Close)
	if _, body := socketGet(t, coord.URL+"/v1/candidates"); string(body) != "{\"pairs\":[]}\n" {
		t.Fatalf("empty coordinator answer = %q, want a single node's", body)
	}

	var setup []clusterOp
	for i := 0; i < 50; i++ {
		setup = append(setup, clusterOp{kind: "query", graph: lineGraph(1, 2)})
	}
	for i := 0; i < 100; i++ {
		setup = append(setup, clusterOp{kind: "stream", graph: lineGraph(1, 2, 3)})
	}
	for _, op := range setup {
		if status := tc.applyOp(op); status/100 != 2 {
			t.Fatalf("setup op %s: status %d", op.kind, status)
		}
		ref.apply(op)
	}

	resp, err := http.Post(coord.URL+"/v1/queries", "application/json",
		strings.NewReader(`{"graph":{}} trailing-not-json`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("query with trailing data: status %d, want 400", resp.StatusCode)
	}

	_, body := socketGet(t, coord.URL+"/v1/candidates")
	var merged WirePairs
	if err := json.Unmarshal(body, &merged); err != nil {
		t.Fatal(err)
	}
	if want := ref.candidates(); len(want) != 5000 || !wirePairsEqual(merged.Pairs, want) {
		t.Fatalf("coordinator answered %d pairs, single node %d", len(merged.Pairs), len(want))
	}

	primary := tc.primaryOf(0)
	worker := httptest.NewServer(tc.workers[primary].Handler())
	t.Cleanup(worker.Close)
	if hdr, _ := socketGet(t, worker.URL+"/cluster/groups/0/candidates"); hdr.Get(HeaderLSN) == "" {
		t.Fatal("worker answer lost its LSN header")
	}

	// Degrade the group: the replica misses a write, then the primary dies.
	replica := "w0"
	if primary == "w0" {
		replica = "w1"
	}
	tc.fault.Partition(replica)
	if status := tc.applyOp(clusterOp{kind: "step", changes: map[string][]server.WireOp{
		"0": {ins(50, 2, 51, 3, 5)},
	}}); status/100 != 2 {
		t.Fatalf("write with partitioned replica: status %d", status)
	}
	tc.fault.Heal(replica)
	tc.kill(primary)
	tc.pollUntilDead(primary)
	if hdr, _ := socketGet(t, coord.URL+"/v1/candidates"); hdr.Get(HeaderStale) != "true" || hdr.Get(HeaderStaleLag) == "" {
		t.Fatalf("degraded read headers: %v", hdr)
	}
}
