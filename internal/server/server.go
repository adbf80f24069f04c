package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/npv"
	"nntstream/internal/obs"
	"nntstream/internal/qindex"
)

// Engine is the monitoring surface the server drives. core.Monitor and
// core.DurableEngine satisfy it.
type Engine interface {
	AddQuery(q *graph.Graph) (core.QueryID, error)
	RemoveQuery(id core.QueryID) error
	AddStream(g0 *graph.Graph) (core.StreamID, error)
	StepAll(changes map[core.StreamID]graph.ChangeSet) ([]core.Pair, error)
	// StepAllBatch applies /v1/ingest's timestamps in order and stops at
	// the first failing step, reporting the steps applied and their
	// candidate pairs. core.DurableEngine covers the whole batch with one
	// fsync (group commit); its ack contract is in its doc.
	StepAllBatch(batch []map[core.StreamID]graph.ChangeSet) (applied, pairs int, err error)
	Candidates() []core.Pair
	Stats() core.Stats
	// SetMetrics records per-timestamp latencies and the engine's and
	// filter's sizes into the server's registry.
	SetMetrics(em *core.EngineMetrics)
}

// Server guards an Engine behind an HTTP API with a readers-writer lock:
// mutating requests (registrations, steps) are exclusive, while read-only
// requests (/v1/candidates, /v1/stats) run concurrently. This relies on the
// core.Filter contract that Candidates is a safe read path. /v1/metrics
// takes no server lock: the scrape-time instruments read under the engine's
// own read lock.
type Server struct {
	mu           sync.RWMutex
	engine       Engine
	registry     *obs.Registry
	maxBodyBytes int64
	adm          *admission
	ingest       *ingestMetrics
}

// DefaultMaxBodyBytes caps request bodies: large enough for any realistic
// graph or change-set payload, small enough that a hostile request cannot
// balloon memory. Requests over the cap get 413.
const DefaultMaxBodyBytes = 8 << 20

// New wraps an engine. A metrics registry is created and wired in, so
// StepAll latencies and the engine's and filter's sizes land in /v1/metrics.
func New(engine Engine) *Server {
	return NewWithRegistry(engine, obs.NewRegistry())
}

// NewWithRegistry wraps an engine around an existing registry, so callers
// (cmd/serve) can register instruments — e.g. WAL durability metrics —
// alongside the engine's and have them all served from /v1/metrics.
func NewWithRegistry(engine Engine, reg *obs.Registry) *Server {
	s := &Server{
		engine:       engine,
		registry:     reg,
		maxBodyBytes: DefaultMaxBodyBytes,
		adm:          newAdmission(IngestLimits{}),
		ingest:       newIngestMetrics(reg),
	}
	RegisterProcessMetrics(reg)
	engine.SetMetrics(core.NewEngineMetrics(reg))
	return s
}

// SetMaxBodyBytes overrides the request body cap; v <= 0 restores the
// default.
func (s *Server) SetMaxBodyBytes(v int64) {
	if v <= 0 {
		v = DefaultMaxBodyBytes
	}
	s.maxBodyBytes = v
}

// decodeJSON reads a request body, capped at maxBodyBytes, into dst. On
// failure it writes the error response (413 for an oversized body, 400
// otherwise) and returns false.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	body := http.MaxBytesReader(w, r.Body, s.maxBodyBytes)
	defer body.Close()
	if err := DecodeJSON(body, dst); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			HTTPError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooLarge.Limit)
			return false
		}
		HTTPError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return false
	}
	return true
}

// Registry exposes the server's metrics registry so callers (cmd/serve) can
// register their own instruments alongside the engine's.
func (s *Server) Registry() *obs.Registry { return s.registry }

// StatusFor maps engine errors onto HTTP statuses via the core sentinel
// errors: unknown IDs are 404, anything else 500. Cluster workers answer
// with the same mapping.
func StatusFor(err error) int {
	if errors.Is(err, core.ErrUnknownStream) || errors.Is(err, core.ErrUnknownQuery) {
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

// Handler returns the API handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/queries", s.handleQueries)
	mux.HandleFunc("/v1/queries/", s.handleQueryByID)
	mux.HandleFunc("/v1/streams", s.handleStreams)
	mux.HandleFunc("/v1/step", s.handleStep)
	mux.HandleFunc("/v1/ingest", s.handleIngest)
	mux.HandleFunc("/v1/candidates", s.handleCandidates)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/metrics", MetricsHandler(s.registry))
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

type graphRequest struct {
	Graph WireGraph `json:"graph"`
}

type idResponse struct {
	ID int `json:"id"`
}

type stepRequest struct {
	// Changes maps stream IDs (as JSON object keys, hence strings) to
	// operation lists.
	Changes map[string][]WireOp `json:"changes"`
}

// The engine calls below run under s.mu, each in a function of its own
// whose deferred unlock also runs when the call panics — net/http recovers
// a handler's panic, so an inline unlock would leave the lock held and
// every later request blocked. The response is written after the unlock.

func (s *Server) addQuery(g *graph.Graph) (core.QueryID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engine.AddQuery(g)
}

func (s *Server) removeQuery(id core.QueryID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engine.RemoveQuery(id)
}

func (s *Server) addStream(g *graph.Graph) (core.StreamID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engine.AddStream(g)
}

func (s *Server) stepAll(changes map[core.StreamID]graph.ChangeSet) ([]core.Pair, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engine.StepAll(changes)
}

func (s *Server) candidates() []core.Pair {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.engine.Candidates()
}

func (s *Server) stats() core.Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.engine.Stats()
}

func (s *Server) handleQueries(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		HTTPError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req graphRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	g, err := req.Graph.ToGraph()
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "bad graph: %v", err)
		return
	}
	id, err := s.addQuery(g)
	if err != nil {
		HTTPError(w, StatusFor(err), "%v", err)
		return
	}
	WriteJSON(w, http.StatusCreated, idResponse{ID: int(id)})
}

func (s *Server) handleQueryByID(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodDelete {
		HTTPError(w, http.StatusMethodNotAllowed, "DELETE only")
		return
	}
	idStr := strings.TrimPrefix(r.URL.Path, "/v1/queries/")
	id, err := strconv.Atoi(idStr)
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "bad query id %q", idStr)
		return
	}
	if err := s.removeQuery(core.QueryID(id)); err != nil {
		HTTPError(w, StatusFor(err), "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "removed"})
}

func (s *Server) handleStreams(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		HTTPError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req graphRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	g, err := req.Graph.ToGraph()
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "bad graph: %v", err)
		return
	}
	id, err := s.addStream(g)
	if err != nil {
		HTTPError(w, StatusFor(err), "%v", err)
		return
	}
	WriteJSON(w, http.StatusCreated, idResponse{ID: int(id)})
}

func (s *Server) handleStep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		HTTPError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req stepRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	changes := make(map[core.StreamID]graph.ChangeSet, len(req.Changes))
	for key, ops := range req.Changes {
		sid, err := strconv.Atoi(key)
		if err != nil {
			HTTPError(w, http.StatusBadRequest, "bad stream id %q", key)
			return
		}
		var cs graph.ChangeSet
		for i, wop := range ops {
			op, err := wop.ToChangeOp()
			if err != nil {
				HTTPError(w, http.StatusBadRequest, "stream %s op %d: %v", key, i, err)
				return
			}
			cs = append(cs, op)
		}
		changes[core.StreamID(sid)] = cs
	}
	pairs, err := s.stepAll(changes)
	if err != nil {
		HTTPError(w, StatusFor(err), "%v", err)
		return
	}
	WritePairs(w, pairs)
}

func (s *Server) handleCandidates(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		HTTPError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	WritePairs(w, s.candidates())
}

type statsResponse struct {
	Timestamps     int     `json:"timestamps"`
	AvgFilterMs    float64 `json:"avg_filter_ms"`
	CandidateRatio float64 `json:"candidate_ratio"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		HTTPError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	st := s.stats()
	WriteJSON(w, http.StatusOK, statsResponse{
		Timestamps:     st.Timestamps,
		AvgFilterMs:    float64(st.AvgTimePerTimestamp()) / float64(time.Millisecond),
		CandidateRatio: st.CandidateRatio(),
	})
}

// RegisterProcessMetrics registers the process-global dominance-kernel and
// query-index counters in reg. They are package atomics shared by every
// filter in the process, not state of one engine, so each process that
// serves metrics registers them once: serve's API server and a cluster
// worker alike.
func RegisterProcessMetrics(reg *obs.Registry) {
	reg.CounterFunc("nntstream_npv_dominance_tests_total",
		"Dominance tests answered by the packed NPV kernel.",
		func() float64 { tests, _ := npv.KernelCounters(); return float64(tests) })
	reg.CounterFunc("nntstream_npv_sig_rejects_total",
		"Dominance tests settled by the support-signature reject alone.",
		func() float64 { _, rejects := npv.KernelCounters(); return float64(rejects) })
	reg.CounterFunc("nntstream_qindex_candidates_total",
		"Query verdicts the dominance index sent to re-evaluation.",
		func() float64 { cands, _ := qindex.Counters(); return float64(cands) })
	reg.CounterFunc("nntstream_qindex_pruned_total",
		"Query verdicts the dominance index proved unchanged without a dominance test.",
		func() float64 { _, pruned := qindex.Counters(); return float64(pruned) })
}

// MetricsHandler serves reg in Prometheus text format. The exposition is
// rendered into memory before the first byte goes out, so scrape-time
// instruments that read under an engine's read lock have released it before
// a slow client is written to.
func MetricsHandler(reg *obs.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			HTTPError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		var body bytes.Buffer
		_ = reg.WritePrometheus(&body)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Header().Set("Content-Length", strconv.Itoa(body.Len()))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body.Bytes())
	}
}

// DecodeJSON decodes exactly one JSON value from r into dst: anything but
// whitespace after that value is an error.
func DecodeJSON(r io.Reader, dst any) error {
	dec := json.NewDecoder(r)
	if err := dec.Decode(dst); err != nil {
		return err
	}
	switch err := dec.Decode(&json.RawMessage{}); {
	case err == nil:
		return errors.New("trailing data after the JSON value")
	case !errors.Is(err, io.EOF):
		return fmt.Errorf("after the JSON value: %w", err)
	}
	return nil
}

// WriteJSON answers with status and v encoded as the JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(v); err != nil {
		HTTPError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	writeBody(w, status, body.Bytes())
}

// WritePairs answers 200 with the pair-list body AppendPairs renders. The
// body is rendered into a pooled buffer, which the Write has copied out of
// by the time it returns, so a read of a large answer reuses warm memory
// instead of allocating its body afresh.
func WritePairs(w http.ResponseWriter, pairs []core.Pair) {
	body := pairBodies.Get().(*[]byte)
	*body = AppendPairs((*body)[:0], pairs)
	writeBody(w, http.StatusOK, *body)
	pairBodies.Put(body)
}

// pairBodies holds WritePairs' body buffers.
var pairBodies = sync.Pool{New: func() any { return new([]byte) }}

// writeBody sends a rendered JSON body in one Write under its
// Content-Length, so net/http never answers in chunks.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// HTTPError answers with status and a {"error": message} JSON body.
func HTTPError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
