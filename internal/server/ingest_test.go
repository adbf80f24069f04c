package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"nntstream/internal/core"
	"nntstream/internal/join"
	"nntstream/internal/obs"
	"nntstream/internal/simdisk"
	"nntstream/internal/wal"
)

// insFrame renders one canonical step frame inserting a single edge on one
// stream.
func insFrame(stream int, u, v int32, ul, vl, el uint16) string {
	return fmt.Sprintf(`{"changes":[{"stream":%d,"ops":[{"op":"ins","u":%d,"v":%d,"ul":%d,"vl":%d,"el":%d}]}]}`,
		stream, u, v, ul, vl, el)
}

func postNDJSON(t *testing.T, url, tenant, body string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/ingest", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(text)
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, text)
	}
	return string(text)
}

// durableTestServer builds an httptest server over a DurableEngine with WAL
// metrics exposed, so tests can count fsyncs per request.
func durableTestServer(t *testing.T) (*httptest.Server, *Server, *wal.Metrics) {
	t.Helper()
	reg := obs.NewRegistry()
	m := wal.NewMetrics(reg)
	eng, err := core.OpenDurableEngine(t.TempDir(),
		func() core.Filter { return join.NewSkyline(3) },
		core.DurableOptions{Fsync: wal.SyncAlways, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	s := NewWithRegistry(eng, reg)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return srv, s, m
}

// registerPair registers one query (labels 0-1) and one stream (labels 0-2)
// and returns the stream id.
func registerPair(t *testing.T, url string) int {
	t.Helper()
	resp, _ := do(t, http.MethodPost, url+"/v1/queries", graphRequest{Graph: edgeGraph(0, 1)})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("add query = %d", resp.StatusCode)
	}
	resp, body := do(t, http.MethodPost, url+"/v1/streams", graphRequest{Graph: edgeGraph(0, 2)})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("add stream = %d", resp.StatusCode)
	}
	var sid int
	if err := json.Unmarshal(body["id"], &sid); err != nil {
		t.Fatal(err)
	}
	return sid
}

// TestIngestBatchMatchesSequentialSteps is the acceptance criterion: a
// batched ingest of N steps costs at most one fsync and leaves
// /v1/candidates bit-identical to N sequential /v1/step calls.
func TestIngestBatchMatchesSequentialSteps(t *testing.T) {
	const n = 5
	batchSrv, _, m := durableTestServer(t)
	seqSrv, _, _ := durableTestServer(t)

	sidB := registerPair(t, batchSrv.URL)
	sidS := registerPair(t, seqSrv.URL)
	if sidB != sidS {
		t.Fatalf("stream ids diverged: %d vs %d", sidB, sidS)
	}

	// N steps, each attaching one fresh vertex; step i uses label i%3 so
	// the candidate set changes over the batch.
	var frames []string
	for i := 0; i < n; i++ {
		frames = append(frames, insFrame(sidB, 0, int32(10+i), 0, uint16(i%3), 0))
	}

	fsyncsBefore := m.FsyncSeconds.Count()
	resp, text := postNDJSON(t, batchSrv.URL, "", strings.Join(frames, "\n")+"\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d: %s", resp.StatusCode, text)
	}
	if got := m.FsyncSeconds.Count() - fsyncsBefore; got > 1 {
		t.Fatalf("batch of %d steps cost %d fsyncs; want <= 1", n, got)
	}
	if !strings.Contains(text, `"steps":5`) || !strings.Contains(text, `"ops":5`) {
		t.Fatalf("ingest response = %s; want steps=5 ops=5", text)
	}

	for i := 0; i < n; i++ {
		step := stepRequest{Changes: map[string][]WireOp{
			fmt.Sprint(sidS): {{Op: "ins", U: 0, V: int32(10 + i), ULabel: 0, VLabel: uint16(i % 3), ELabel: 0}},
		}}
		if resp, _ := do(t, http.MethodPost, seqSrv.URL+"/v1/step", step); resp.StatusCode != http.StatusOK {
			t.Fatalf("sequential step %d = %d", i, resp.StatusCode)
		}
	}

	batchCand := getBody(t, batchSrv.URL+"/v1/candidates")
	seqCand := getBody(t, seqSrv.URL+"/v1/candidates")
	if batchCand != seqCand {
		t.Fatalf("candidates diverged:\n  batch: %s\n  seq:   %s", batchCand, seqCand)
	}
}

// TestIngestFallbackEngine: the in-memory engine's StepAllBatch (core.Monitor,
// no WAL to share an fsync) serves /v1/ingest step by step.
func TestIngestFallbackEngine(t *testing.T) {
	srv := testServer(t)
	sid := registerPair(t, srv.URL)
	resp, text := postNDJSON(t, srv.URL, "",
		insFrame(sid, 0, 10, 0, 1, 0)+"\n"+insFrame(sid, 0, 11, 0, 2, 0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d: %s", resp.StatusCode, text)
	}
	if !strings.Contains(text, `"steps":2`) {
		t.Fatalf("response = %s; want 2 steps", text)
	}
}

// TestIngestMalformedFrameRejectsWholeBatch: a defect on any line rejects
// the batch before the engine or the WAL sees anything.
func TestIngestMalformedFrameRejectsWholeBatch(t *testing.T) {
	srv, s, _ := durableTestServer(t)
	sid := registerPair(t, srv.URL)
	d := s.engine.(*core.DurableEngine)
	lsnBefore := d.LastLSN()

	body := insFrame(sid, 0, 10, 0, 1, 0) + "\n" +
		`{"changes":[{"stream":` + fmt.Sprint(sid) + `,"ops":[{"op":"zap"}]}]}` + "\n" +
		insFrame(sid, 0, 11, 0, 1, 0)
	resp, text := postNDJSON(t, srv.URL, "", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed batch = %d: %s", resp.StatusCode, text)
	}
	if !strings.Contains(text, "line 2") {
		t.Fatalf("error %q does not name the offending line", text)
	}
	if got := d.LastLSN(); got != lsnBefore {
		t.Fatalf("WAL advanced to LSN %d on a rejected batch (was %d)", got, lsnBefore)
	}
	if cand := getBody(t, srv.URL+"/v1/candidates"); !strings.Contains(cand, `"pairs":[]`) {
		t.Fatalf("engine state changed on a rejected batch: %s", cand)
	}

	// Duplicate stream within one frame is a decode-stage rejection too.
	dup := `{"changes":[{"stream":0,"ops":[]},{"stream":0,"ops":[]}]}`
	if resp, text := postNDJSON(t, srv.URL, "", dup); resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(text, "duplicate stream") {
		t.Fatalf("duplicate-stream frame = %d: %s", resp.StatusCode, text)
	}
}

// TestIngestMidBatchApplyFailure: decode-clean steps that the engine rejects
// (unknown stream) fail per step — earlier steps stay applied and the
// response reports how far the batch got — on the in-memory and the durable
// engine alike.
func TestIngestMidBatchApplyFailure(t *testing.T) {
	durable, _, _ := durableTestServer(t)
	for _, tc := range []struct {
		name string
		srv  *httptest.Server
	}{{"monitor", testServer(t)}, {"durable", durable}} {
		t.Run(tc.name, func(t *testing.T) {
			sid := registerPair(t, tc.srv.URL)
			// The first step grows the stream into a match of the query.
			body := insFrame(sid, 0, 10, 0, 1, 0) + "\n" + insFrame(99, 0, 11, 0, 1, 0)
			resp, text := postNDJSON(t, tc.srv.URL, "", body)
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("unknown-stream batch = %d: %s", resp.StatusCode, text)
			}
			if !strings.Contains(text, `"steps_applied":1`) {
				t.Fatalf("response %q does not report the applied prefix", text)
			}
			if cand := getBody(t, tc.srv.URL+"/v1/candidates"); strings.Contains(cand, `"pairs":[]`) {
				t.Fatalf("the applied step left no candidate: %s", cand)
			}
		})
	}
}

// TestIngestSyncFailureAcknowledgesNothing: when a batch's closing fsync
// fails, the steps are applied in memory but none is known durable, so the
// answer is a 500 that reports zero steps applied, not the applied prefix.
func TestIngestSyncFailureAcknowledgesNothing(t *testing.T) {
	disk := simdisk.New()
	eng, err := core.OpenDurableEngine("data",
		func() core.Filter { return join.NewSkyline(3) },
		core.DurableOptions{Fsync: wal.SyncAlways, FS: disk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Crash() })
	srv := httptest.NewServer(New(eng).Handler())
	t.Cleanup(srv.Close)
	sid := registerPair(t, srv.URL)

	disk.Fail(simdisk.Sync, 0)
	body := insFrame(sid, 0, 10, 0, 1, 0) + "\n" + insFrame(sid, 0, 11, 0, 1, 0)
	resp, text := postNDJSON(t, srv.URL, "", body)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("batch with a failed closing fsync = %d: %s", resp.StatusCode, text)
	}
	if !strings.Contains(text, `"steps_applied":0`) || !strings.Contains(text, "batch durability unknown") {
		t.Fatalf("response %q does not withhold the acknowledgement", text)
	}
}

func TestIngestRejectsBadRequests(t *testing.T) {
	srv := testServer(t)
	if resp, err := http.Get(srv.URL + "/v1/ingest"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET ingest = %d", resp.StatusCode)
	}
	if resp, _ := postNDJSON(t, srv.URL, "", ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty body = %d", resp.StatusCode)
	}
	if resp, _ := postNDJSON(t, srv.URL, "", "\n\n  \n"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("blank body = %d", resp.StatusCode)
	}
}

func TestIngestOversizedBody(t *testing.T) {
	srv := testServer(t)
	sid := registerPair(t, srv.URL)

	small := New(core.NewMonitor(join.NewSkyline(3)))
	small.SetMaxBodyBytes(64)
	smallSrv := httptest.NewServer(small.Handler())
	t.Cleanup(smallSrv.Close)

	body := insFrame(sid, 0, 10, 0, 1, 0) + "\n" + insFrame(sid, 0, 11, 0, 1, 0)
	if int64(len(body)) <= 64 {
		t.Fatalf("test body too small (%d bytes) to trip the 64-byte cap", len(body))
	}
	resp, text := postNDJSON(t, smallSrv.URL, "", body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest = %d: %s", resp.StatusCode, text)
	}
	// The default cap accepts the same body.
	if resp, _ := postNDJSON(t, srv.URL, "", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("normal-cap ingest = %d", resp.StatusCode)
	}
}

// TestIngestSlowClientTimeout: a client that sends headers but stalls the
// body is cut off by the per-request read deadline with 408, freeing its
// in-flight slot.
func TestIngestSlowClientTimeout(t *testing.T) {
	s := New(core.NewMonitor(join.NewSkyline(3)))
	s.SetIngestLimits(IngestLimits{ReadTimeout: 150 * time.Millisecond})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Promise 4096 body bytes, deliver a fragment, then stall.
	fmt.Fprintf(conn, "POST /v1/ingest HTTP/1.1\r\nHost: t\r\nContent-Length: 4096\r\nContent-Type: application/x-ndjson\r\n\r\n")
	fmt.Fprintf(conn, `{"changes":`)

	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("reading timeout response: %v", err)
	}
	if status := string(buf[:n]); !strings.Contains(status, "408") {
		t.Fatalf("slow-client response = %q; want 408", status)
	}
	if got := s.adm.inFlight(); got != 0 {
		t.Fatalf("in-flight after timeout = %d; want 0 (slot released)", got)
	}
}

// TestIngestInFlightBudget: requests past MaxInFlight are shed with 429 and
// a Retry-After hint before their body is read.
func TestIngestInFlightBudget(t *testing.T) {
	s := New(core.NewMonitor(join.NewSkyline(3)))
	s.SetIngestLimits(IngestLimits{MaxInFlight: 1})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	sid := registerPair(t, srv.URL)

	// Occupy the only slot directly, then observe the shed.
	if !s.adm.acquire() {
		t.Fatal("acquire on idle admission failed")
	}
	resp, text := postNDJSON(t, srv.URL, "", insFrame(sid, 0, 10, 0, 1, 0))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget ingest = %d: %s", resp.StatusCode, text)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	s.adm.release()
	if resp, _ := postNDJSON(t, srv.URL, "", insFrame(sid, 0, 10, 0, 1, 0)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest after release = %d", resp.StatusCode)
	}
}

// TestIngestTenantQuota: an exhausted tenant is denied with 429 and a
// Retry-After hint while other tenants keep flowing.
func TestIngestTenantQuota(t *testing.T) {
	s := New(core.NewMonitor(join.NewSkyline(3)))
	s.SetIngestLimits(IngestLimits{TenantRate: 0.5, TenantBurst: 2})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	sid := registerPair(t, srv.URL)

	// Two ops drain tenant A's burst.
	body := insFrame(sid, 0, 10, 0, 1, 0) + "\n" + insFrame(sid, 0, 11, 0, 1, 0)
	if resp, text := postNDJSON(t, srv.URL, "tenant-a", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("first tenant-a batch = %d: %s", resp.StatusCode, text)
	}
	resp, text := postNDJSON(t, srv.URL, "tenant-a", insFrame(sid, 0, 12, 0, 1, 0))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("drained tenant-a = %d: %s", resp.StatusCode, text)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q; want a positive hint", ra)
	}
	if !strings.Contains(text, "tenant-a") {
		t.Fatalf("quota denial %q does not name the tenant", text)
	}
	// Tenant B is unaffected.
	if resp, text := postNDJSON(t, srv.URL, "tenant-b", insFrame(sid, 0, 13, 0, 1, 0)); resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant-b batch = %d: %s", resp.StatusCode, text)
	}
}

// TestIngestBatchOverBurst: a batch costing more than the tenant burst can
// never be admitted, so it is answered 413 with no Retry-After, charges no
// tokens and leaves the engine and the WAL untouched, while a batch within
// the burst that finds the bucket drained still gets 429 with a hint. The
// rows run in order against one server, with burst 20 and a refill too slow
// to matter.
func TestIngestBatchOverBurst(t *testing.T) {
	srv, s, m := durableTestServer(t)
	s.SetIngestLimits(IngestLimits{TenantRate: 0.01, TenantBurst: 20})
	sid := registerPair(t, srv.URL)
	next := int32(10)
	batch := func(ops int) string {
		frames := make([]string, ops)
		for i := range frames {
			frames[i] = insFrame(sid, 0, next, 0, 1, 0)
			next++
		}
		return strings.Join(frames, "\n")
	}
	for _, tc := range []struct {
		name, tenant string
		ops, status  int
	}{
		{"a batch of exactly the burst", "a", 20, http.StatusOK},
		{"a batch one op over the burst", "b", 21, http.StatusRequestEntityTooLarge},
		{"the burst after an over-burst batch", "b", 20, http.StatusOK},
		{"a batch within the burst on a drained bucket", "a", 15, http.StatusTooManyRequests},
	} {
		stats, walBytes := getBody(t, srv.URL+"/v1/stats"), m.BytesAppended.Value()
		rejected, shed := s.ingest.rejected.Value(), s.ingest.shedQuota.Value()
		resp, text := postNDJSON(t, srv.URL, tc.tenant, batch(tc.ops))
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d: %s", tc.name, resp.StatusCode, tc.status, text)
		}
		ra := resp.Header.Get("Retry-After")
		switch tc.status {
		case http.StatusOK:
			continue
		case http.StatusRequestEntityTooLarge:
			if ra != "" || !strings.Contains(text, "21 ops") || !strings.Contains(text, "burst of 20") {
				t.Fatalf("%s: Retry-After %q, body %q; want no hint and a body naming 21 ops and the burst of 20", tc.name, ra, text)
			}
			if s.ingest.rejected.Value() != rejected+1 || s.ingest.shedQuota.Value() != shed {
				t.Fatalf("%s: counted as shed, not rejected", tc.name)
			}
		case http.StatusTooManyRequests:
			if ra == "" || ra == "0" {
				t.Fatalf("%s: Retry-After %q; want a positive hint", tc.name, ra)
			}
			if s.ingest.shedQuota.Value() != shed+1 {
				t.Fatalf("%s: not counted as shed by the quota", tc.name)
			}
		}
		if got := getBody(t, srv.URL+"/v1/stats"); got != stats || m.BytesAppended.Value() != walBytes {
			t.Fatalf("%s: a denied batch reached the engine or the WAL: stats %s -> %s", tc.name, stats, got)
		}
	}
}

// TestIngestMetricsExported checks the nntstream_ingest_* instruments move
// with traffic and reach the /v1/metrics exposition.
func TestIngestMetricsExported(t *testing.T) {
	srv, s, _ := durableTestServer(t)
	sid := registerPair(t, srv.URL)
	if resp, _ := postNDJSON(t, srv.URL, "", insFrame(sid, 0, 10, 0, 1, 0)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d", resp.StatusCode)
	}
	if resp, _ := postNDJSON(t, srv.URL, "", "not a frame"); resp.StatusCode != http.StatusBadRequest {
		t.Fatal("malformed ingest accepted")
	}
	if got := s.ingest.requests.Value(); got != 2 {
		t.Fatalf("requests counter = %d; want 2", got)
	}
	if got := s.ingest.steps.Value(); got != 1 {
		t.Fatalf("steps counter = %d; want 1", got)
	}
	if got := s.ingest.rejected.Value(); got != 1 {
		t.Fatalf("rejected counter = %d; want 1", got)
	}
	// The in-flight gauge must drain once requests complete — a defer
	// ordered after the admission release would freeze it at 1 forever.
	if !strings.Contains(getBody(t, srv.URL+"/v1/metrics"), "nntstream_ingest_inflight 0") {
		t.Error("nntstream_ingest_inflight did not drain to 0 after requests completed")
	}
	text := getBody(t, srv.URL+"/v1/metrics")
	for _, name := range []string{
		"nntstream_ingest_requests_total", "nntstream_ingest_steps_total",
		"nntstream_ingest_ops_total", "nntstream_ingest_rejected_total",
		"nntstream_ingest_batch_seconds",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("/v1/metrics missing %s", name)
		}
	}
}

// TestIngestConcurrentWithReads drives batched writes and read endpoints
// concurrently — the -race gate's coverage for the ingest path.
func TestIngestConcurrentWithReads(t *testing.T) {
	f := join.NewSkyline(3)
	f.SetWorkers(2) // run the evaluation pool under concurrent readers
	s := New(core.NewMonitor(f))
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	sid := registerPair(t, srv.URL)

	const writers, reads = 4, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				v := int32(100 + w*reads + i)
				body := insFrame(sid, 0, v, 0, 1, 0) + "\n" + insFrame(sid, 0, v+1000, 0, 2, 0)
				resp, text := postNDJSON(t, srv.URL, fmt.Sprintf("w%d", w), body)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("writer %d ingest = %d: %s", w, resp.StatusCode, text)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writers*reads; i++ {
			for _, path := range []string{"/v1/candidates", "/v1/stats"} {
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	wg.Wait()
}

// TestDecodeIngestBatchWarmAllocsIndependentOfOps: the ingest path decodes
// with a pooled, warm decoder, so a one-frame batch allocates the same —
// the batch, the frame's map and the copied change set — at 10 ops and at
// 300. A decoder declared per request grows its op buffer on every frame.
func TestDecodeIngestBatchWarmAllocsIndependentOfOps(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops pooled items at random")
	}
	allocs := func(ops int) float64 {
		var b strings.Builder
		b.WriteString(`{"changes":[{"stream":0,"ops":[`)
		for i := 0; i < ops; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"op":"ins","u":%d,"v":%d,"ul":1,"vl":2,"el":0}`, i, i+1)
		}
		b.WriteString("]}]}\n")
		body := []byte(b.String())
		decode := func() {
			if batch, n, err := decodeIngestBatch(body); err != nil || len(batch) != 1 || n != ops {
				t.Fatalf("decoded %d steps and %d ops (%v); want 1 and %d", len(batch), n, err, ops)
			}
		}
		decode()
		return testing.AllocsPerRun(50, decode)
	}
	small, large := allocs(10), allocs(300)
	if small != large {
		t.Fatalf("a warm one-frame batch allocates %.0f times at 10 ops and %.0f at 300", small, large)
	}
	t.Logf("a warm one-frame batch allocates %.0f times at 10 and at 300 ops", small)
}

// TestReadBodyBytesSizedToBody: reading a 64 KiB ingest body that declares
// its length allocates at most 1.1× the body plus 4 KiB. io.ReadAll grows
// its buffer from 512 bytes and allocated over four times the body.
func TestReadBodyBytesSizedToBody(t *testing.T) {
	const size = 64 << 10
	payload := []byte(strings.Repeat(insFrame(0, 1, 2, 1, 2, 0)+"\n", size/64)[:size])
	var minBytes uint64
	for i := 0; i < 5; i++ {
		r := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(payload))
		w := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		data, err := readBody(w, r, DefaultMaxBodyBytes)
		runtime.ReadMemStats(&after)
		if err != nil || !bytes.Equal(data, payload) {
			t.Fatalf("readBody = (%d bytes, %v); want the %d-byte payload", len(data), err, size)
		}
		if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < minBytes {
			minBytes = n
		}
	}
	if limit := uint64(size + size/10 + 4<<10); minBytes > limit {
		t.Fatalf("reading a %d B body allocated %d B; want at most %d B", size, minBytes, limit)
	}
	t.Logf("reading a %d B body allocated %d B", size, minBytes)
}
