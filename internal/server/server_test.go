package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/join"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(New(core.NewMonitor(join.NewSkyline(3))).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func do(t *testing.T, method, url string, body any) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]json.RawMessage{}
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

func edgeGraph(ul, vl uint16) WireGraph {
	return WireGraph{
		Vertices: []WireVertex{{ID: 0, Label: ul}, {ID: 1, Label: vl}},
		Edges:    []WireEdge{{U: 0, V: 1, Label: 0}},
	}
}

func TestServerEndToEnd(t *testing.T) {
	srv := testServer(t)

	// Health.
	resp, _ := do(t, http.MethodGet, srv.URL+"/v1/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	// Register a query (A-B) and a stream (A-C).
	resp, body := do(t, http.MethodPost, srv.URL+"/v1/queries", graphRequest{Graph: edgeGraph(0, 1)})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("add query = %d", resp.StatusCode)
	}
	var qid idResponse
	if err := json.Unmarshal(body["id"], &qid.ID); err != nil {
		t.Fatal(err)
	}
	resp, body = do(t, http.MethodPost, srv.URL+"/v1/streams", graphRequest{Graph: edgeGraph(0, 2)})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("add stream = %d", resp.StatusCode)
	}
	var sid int
	if err := json.Unmarshal(body["id"], &sid); err != nil {
		t.Fatal(err)
	}

	// No candidates yet.
	resp, body = do(t, http.MethodGet, srv.URL+"/v1/candidates", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("candidates = %d", resp.StatusCode)
	}
	var pairs []WirePair
	_ = json.Unmarshal(body["pairs"], &pairs)
	if len(pairs) != 0 {
		t.Fatalf("pairs = %v; want none", pairs)
	}

	// Step: attach a B vertex; the query should match.
	step := stepRequest{Changes: map[string][]WireOp{
		fmt.Sprint(sid): {{Op: "ins", U: 0, V: 7, ULabel: 0, VLabel: 1, ELabel: 0}},
	}}
	resp, body = do(t, http.MethodPost, srv.URL+"/v1/step", step)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("step = %d", resp.StatusCode)
	}
	_ = json.Unmarshal(body["pairs"], &pairs)
	if len(pairs) != 1 || pairs[0].Query != qid.ID || pairs[0].Stream != sid {
		t.Fatalf("pairs = %v", pairs)
	}

	// Stats reflect one timestamp.
	resp, body = do(t, http.MethodGet, srv.URL+"/v1/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats = %d", resp.StatusCode)
	}
	var ts int
	_ = json.Unmarshal(body["timestamps"], &ts)
	if ts != 1 {
		t.Fatalf("timestamps = %d", ts)
	}

	// Dynamic removal (DSC supports it).
	resp, _ = do(t, http.MethodDelete, fmt.Sprintf("%s/v1/queries/%d", srv.URL, qid.ID), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete query = %d", resp.StatusCode)
	}
	resp, body = do(t, http.MethodGet, srv.URL+"/v1/candidates", nil)
	_ = json.Unmarshal(body["pairs"], &pairs)
	if len(pairs) != 0 {
		t.Fatalf("pairs after removal = %v", pairs)
	}
}

func TestServerValidation(t *testing.T) {
	srv := testServer(t)
	cases := []struct {
		method, path string
		body         any
		want         int
	}{
		{http.MethodGet, "/v1/queries", nil, http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/candidates", nil, http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/step", "not json", http.StatusBadRequest},
		{http.MethodPost, "/v1/step", stepRequest{Changes: map[string][]WireOp{"x": nil}}, http.StatusBadRequest},
		{http.MethodPost, "/v1/step", stepRequest{Changes: map[string][]WireOp{"42": nil}}, http.StatusNotFound}, // unknown stream
		{http.MethodDelete, "/v1/queries/zzz", nil, http.StatusBadRequest},
		{http.MethodDelete, "/v1/queries/99", nil, http.StatusNotFound},
		{http.MethodPost, "/v1/queries", graphRequest{Graph: WireGraph{
			Edges: []WireEdge{{U: 0, V: 1}},
		}}, http.StatusBadRequest}, // edge without vertices
		{http.MethodPost, "/v1/step", stepRequest{Changes: map[string][]WireOp{
			"0": {{Op: "frobnicate"}},
		}}, http.StatusBadRequest},
	}
	for i, c := range cases {
		resp, _ := do(t, c.method, srv.URL+c.path, c.body)
		if resp.StatusCode != c.want {
			t.Fatalf("case %d (%s %s): status %d; want %d", i, c.method, c.path, resp.StatusCode, c.want)
		}
	}
}

// TestDecodeRejectsTrailingData: a request body is one JSON value, and
// anything after it but whitespace is a 400 that registers nothing.
func TestDecodeRejectsTrailingData(t *testing.T) {
	srv := testServer(t)
	query := `{"graph":{"vertices":[{"id":0,"label":0},{"id":1,"label":1}],"edges":[{"u":0,"v":1,"label":0}]}}`
	cases := []struct {
		name, body string
		want       int
	}{
		{"trailing newline", query + " \n", http.StatusCreated},
		{"trailing garbage", query + " trailing-not-json", http.StatusBadRequest},
		{"two objects", query + query, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Post(srv.URL+"/v1/queries", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Fatalf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
	// Only the first case registered a query, so the next one gets ID 1.
	_, body := do(t, http.MethodPost, srv.URL+"/v1/queries", graphRequest{Graph: edgeGraph(0, 1)})
	if id := string(body["id"]); id != "1" {
		t.Fatalf("next query id = %s, want 1", id)
	}
}

// nopFilter is a core.Filter that accepts everything and reports nothing.
type nopFilter struct{}

func (nopFilter) Name() string                                { return "nop" }
func (nopFilter) AddQuery(core.QueryID, *graph.Graph) error   { return nil }
func (nopFilter) RemoveQuery(core.QueryID) error              { return nil }
func (nopFilter) AddStream(core.StreamID, *graph.Graph) error { return nil }
func (nopFilter) Apply(core.StreamID, graph.ChangeSet) error  { return nil }
func (nopFilter) Candidates() []core.Pair                     { return nil }

// nopEngine is an Engine that accepts everything and reports nothing; the
// stub engines embed it and override what their test drives.
type nopEngine struct{}

func (nopEngine) AddQuery(*graph.Graph) (core.QueryID, error)   { return 0, nil }
func (nopEngine) RemoveQuery(core.QueryID) error                { return nil }
func (nopEngine) AddStream(*graph.Graph) (core.StreamID, error) { return 0, nil }
func (nopEngine) Candidates() []core.Pair                       { return nil }
func (nopEngine) Stats() core.Stats                             { return core.Stats{} }
func (nopEngine) SetMetrics(*core.EngineMetrics)                {}

func (nopEngine) StepAll(map[core.StreamID]graph.ChangeSet) ([]core.Pair, error) {
	return nil, nil
}

func (nopEngine) StepAllBatch(batch []map[core.StreamID]graph.ChangeSet) (int, int, error) {
	return len(batch), 0, nil
}

// panicFilter is nopFilter whose AddStream, or Apply, panics.
type panicFilter struct {
	nopFilter
	onApply bool
}

func (f panicFilter) AddStream(core.StreamID, *graph.Graph) error {
	if !f.onApply {
		panic("filter: AddStream")
	}
	return nil
}

func (f panicFilter) Apply(core.StreamID, graph.ChangeSet) error {
	if f.onApply {
		panic("filter: Apply")
	}
	return nil
}

// TestServerSurvivesEnginePanic: net/http recovers a handler's panic, so an
// engine call that panics must still release the engine's lock; the server
// holds none of its own. After a panicking registration, step or ingest,
// GET /v1/stats answers within 2 s.
func TestServerSurvivesEnginePanic(t *testing.T) {
	for _, tc := range []struct {
		name, method, path, body string
		onApply                  bool
	}{
		{name: "add_stream", method: http.MethodPost, path: "/v1/streams",
			body: `{"graph":{"vertices":[{"id":0,"label":0},{"id":1,"label":1}],"edges":[{"u":0,"v":1,"label":0}]}}`},
		{name: "step", method: http.MethodPost, path: "/v1/step", onApply: true,
			body: `{"changes":{"0":[{"op":"ins","u":1,"v":2,"ulabel":1,"vlabel":2,"elabel":0}]}}`},
		{name: "ingest", method: http.MethodPost, path: "/v1/ingest", onApply: true,
			body: `{"changes":[{"stream":0,"ops":[{"op":"ins","u":1,"v":2,"ul":1,"vl":2,"el":0}]}]}` + "\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewUnstartedServer(New(core.NewMonitor(panicFilter{onApply: tc.onApply})).Handler())
			srv.Config.ErrorLog = log.New(io.Discard, "", 0) // the recovered panic's trace
			srv.Start()
			// A wedged handler would block Close forever; leave the server
			// running when the test has failed.
			t.Cleanup(func() {
				if !t.Failed() {
					srv.Close()
				}
			})
			client := &http.Client{Timeout: 2 * time.Second}
			if tc.onApply {
				resp, err := client.Post(srv.URL+"/v1/streams", "application/json", strings.NewReader(
					`{"graph":{"vertices":[{"id":0,"label":1},{"id":1,"label":1}],"edges":[{"u":0,"v":1,"label":0}]}}`))
				if err != nil || resp.StatusCode != http.StatusCreated {
					t.Fatalf("add stream: %v %v", resp, err)
				}
				resp.Body.Close()
			}
			req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if resp, err := client.Do(req); err == nil {
				resp.Body.Close()
				t.Fatalf("%s %s answered %d; want the panic to drop the connection", tc.method, tc.path, resp.StatusCode)
			}
			resp, err := client.Get(srv.URL + "/v1/stats")
			if err != nil {
				t.Fatalf("GET /v1/stats after the panic: %v", err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET /v1/stats after the panic = %d", resp.StatusCode)
			}
		})
	}
}

// TestServerStatusMapping checks that engine sentinel errors surface as the
// right HTTP statuses: 404 for unknown IDs.
func TestServerStatusMapping(t *testing.T) {
	t.Run("unknown_ids_404", func(t *testing.T) {
		srv := testServer(t)
		resp, _ := do(t, http.MethodPost, srv.URL+"/v1/step",
			stepRequest{Changes: map[string][]WireOp{"7": nil}})
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown stream step = %d; want 404", resp.StatusCode)
		}
		resp, _ = do(t, http.MethodDelete, srv.URL+"/v1/queries/99", nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown query delete = %d; want 404", resp.StatusCode)
		}
	})
}

// TestServerMetrics drives one timestamp and checks /v1/metrics serves the
// engine latency histogram, the candidate-ratio gauge, the filter's
// structure sizes and the process-wide kernel counters in Prometheus text
// format.
func TestServerMetrics(t *testing.T) {
	srv := testServer(t)
	if resp, _ := do(t, http.MethodPost, srv.URL+"/v1/queries", graphRequest{Graph: edgeGraph(0, 1)}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("add query = %d", resp.StatusCode)
	}
	if resp, _ := do(t, http.MethodPost, srv.URL+"/v1/streams", graphRequest{Graph: edgeGraph(0, 2)}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("add stream = %d", resp.StatusCode)
	}
	step := stepRequest{Changes: map[string][]WireOp{
		"0": {{Op: "ins", U: 0, V: 7, ULabel: 0, VLabel: 1, ELabel: 0}},
	}}
	if resp, _ := do(t, http.MethodPost, srv.URL+"/v1/step", step); resp.StatusCode != http.StatusOK {
		t.Fatalf("step = %d", resp.StatusCode)
	}

	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"# TYPE nntstream_engine_apply_seconds histogram",
		"nntstream_engine_apply_seconds_bucket{le=\"+Inf\"} 1",
		"nntstream_engine_apply_seconds_count 1",
		"nntstream_engine_candidate_ratio 1",
		"nntstream_filter_query_vectors 2",
		"nntstream_filter_stream_vectors 3",
		"nntstream_qindex_candidates_total",
		"nntstream_filter_nnt_nodes",
		"nntstream_npv_dominance_tests_total",
		"nntstream_npv_sig_rejects_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", text)
	}
}

// TestEngineGaugesLiveBeforeFirstStep registers queries and streams, takes
// no step, and reads the workload gauges: they are computed at scrape time,
// so they report the real counts instead of 0 until the first step.
func TestEngineGaugesLiveBeforeFirstStep(t *testing.T) {
	srv := testServer(t)
	for i := 0; i < 3; i++ {
		if resp, _ := do(t, http.MethodPost, srv.URL+"/v1/queries", graphRequest{Graph: edgeGraph(0, uint16(i))}); resp.StatusCode != http.StatusCreated {
			t.Fatalf("add query = %d", resp.StatusCode)
		}
	}
	for i := 0; i < 2; i++ {
		if resp, _ := do(t, http.MethodPost, srv.URL+"/v1/streams", graphRequest{Graph: edgeGraph(0, 1)}); resp.StatusCode != http.StatusCreated {
			t.Fatalf("add stream = %d", resp.StatusCode)
		}
	}
	text := getBody(t, srv.URL+"/v1/metrics")
	for _, want := range []string{"\nnntstream_engine_queries 3\n", "\nnntstream_engine_streams 2\n"} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", strings.TrimSpace(want))
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", text)
	}
}

// TestServerConcurrentStepAndReads overlaps POST /v1/step with GET
// /v1/candidates, /v1/stats, and /v1/metrics. Run under -race it validates
// the server's readers-writer locking and the engines' read-path contract.
func TestServerConcurrentStepAndReads(t *testing.T) {
	f := join.NewSkyline(3)
	f.SetWorkers(2) // run the evaluation pool under concurrent readers
	srv := httptest.NewServer(New(core.NewMonitor(f)).Handler())
	defer srv.Close()

	if resp, _ := do(t, http.MethodPost, srv.URL+"/v1/queries", graphRequest{Graph: edgeGraph(0, 1)}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("add query = %d", resp.StatusCode)
	}
	for i := 0; i < 2; i++ {
		if resp, _ := do(t, http.MethodPost, srv.URL+"/v1/streams", graphRequest{Graph: edgeGraph(0, 2)}); resp.StatusCode != http.StatusCreated {
			t.Fatalf("add stream = %d", resp.StatusCode)
		}
	}

	const rounds = 25
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, path := range []string{"/v1/candidates", "/v1/stats", "/v1/metrics", "/v1/candidates"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s = %d", path, resp.StatusCode)
					return
				}
			}
		}(path)
	}
	for i := 0; i < rounds; i++ {
		v := 10 + i
		step := stepRequest{Changes: map[string][]WireOp{
			"0": {{Op: "ins", U: 0, V: int32(v), ULabel: 0, VLabel: 1, ELabel: 0}},
			"1": {{Op: "ins", U: 0, V: int32(v), ULabel: 0, VLabel: 1, ELabel: 0}},
		}}
		resp, _ := do(t, http.MethodPost, srv.URL+"/v1/step", step)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("step %d = %d", i, resp.StatusCode)
		}
	}
	close(stop)
	wg.Wait()

	resp, body := do(t, http.MethodGet, srv.URL+"/v1/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats = %d", resp.StatusCode)
	}
	var ts int
	_ = json.Unmarshal(body["timestamps"], &ts)
	if ts != rounds {
		t.Fatalf("timestamps = %d; want %d", ts, rounds)
	}
}

func TestWireRoundTrip(t *testing.T) {
	wg := edgeGraph(3, 4)
	g, err := wg.ToGraph()
	if err != nil {
		t.Fatal(err)
	}
	back := FromGraph(g)
	if len(back.Vertices) != 2 || len(back.Edges) != 1 {
		t.Fatalf("round trip = %+v", back)
	}
	if back.Vertices[0].Label != 3 || back.Edges[0].U != 0 {
		t.Fatalf("round trip content = %+v", back)
	}
	if _, err := (WireOp{Op: "nope"}).ToChangeOp(); err == nil {
		t.Fatal("bad op accepted")
	}
}

func TestServerBodyLimit(t *testing.T) {
	s := New(core.NewMonitor(join.NewSkyline(3)))
	s.SetMaxBodyBytes(1024)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	// An oversized body is refused with 413 on every decoding endpoint. The
	// payload is syntactically valid JSON so the size cap, not the parser,
	// is what trips.
	big := `{"pad":"` + strings.Repeat("x", 4096) + `"}`
	for _, path := range []string{"/v1/queries", "/v1/streams", "/v1/step"} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413", path, resp.StatusCode)
		}
	}

	// A small valid request still works under the tightened cap.
	resp, _ := do(t, http.MethodPost, srv.URL+"/v1/queries", map[string]any{"graph": edgeGraph(0, 1)})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("small request rejected: %d", resp.StatusCode)
	}

	// SetMaxBodyBytes(0) restores the default.
	s.SetMaxBodyBytes(0)
	resp2, err := http.Post(srv.URL+"/v1/streams", "application/json",
		strings.NewReader(`{"graph":{"vertices":[{"id":0,"label":0},{"id":1,"label":1}],"edges":[{"u":0,"v":1,"label":0}]}}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusCreated {
		t.Fatalf("stream add after cap reset: %d", resp2.StatusCode)
	}
}
