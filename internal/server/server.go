package server

import (
	"encoding/json"
	"errors"
	"fmt"
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
	AddStream(g0 *graph.Graph) (core.StreamID, error)
	StepAll(changes map[core.StreamID]graph.ChangeSet) ([]core.Pair, error)
	Candidates() []core.Pair
	Stats() core.Stats
}

// QueryRemover is the optional dynamic-query surface (DELETE /v1/queries).
type QueryRemover interface {
	RemoveQuery(id core.QueryID) error
}

// metricsEngine is the optional instrumentation surface: engines that accept
// an EngineMetrics record per-timestamp latencies into the server's registry.
type metricsEngine interface {
	SetMetrics(em *core.EngineMetrics)
}

// Server guards an Engine behind an HTTP API with a readers-writer lock:
// mutating requests (registrations, steps) are exclusive, while read-only
// requests (/v1/candidates, /v1/stats, /v1/metrics) run concurrently. This
// relies on the core.Filter contract that Candidates is a safe read path.
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

// New wraps an engine. A metrics registry is created and, when the engine
// supports it, wired in so StepAll latencies land in /v1/metrics.
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
	if me, ok := engine.(metricsEngine); ok {
		me.SetMetrics(core.NewEngineMetrics(reg))
	}
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
	if err := json.NewDecoder(body).Decode(&dst); err != nil {
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

// Stats returns the engine's run statistics under the read lock.
func (s *Server) Stats() core.Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.engine.Stats()
}

// StatusFor maps engine errors onto HTTP statuses via the core sentinel
// errors: unknown IDs are 404, seal violations 409, unsupported operations
// 501, anything else 500. Cluster workers answer with the same mapping.
func StatusFor(err error) int {
	switch {
	case errors.Is(err, core.ErrUnknownStream), errors.Is(err, core.ErrUnknownQuery):
		return http.StatusNotFound
	case errors.Is(err, core.ErrSealed):
		return http.StatusConflict
	case errors.Is(err, core.ErrUnsupported):
		return http.StatusNotImplemented
	default:
		return http.StatusInternalServerError
	}
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
	mux.HandleFunc("/v1/metrics", s.handleMetrics)
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

type pairsResponse struct {
	Pairs []WirePair `json:"pairs"`
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
	s.mu.Lock()
	id, err := s.engine.AddQuery(g)
	s.mu.Unlock()
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
	remover, ok := s.engine.(QueryRemover)
	if !ok {
		HTTPError(w, http.StatusNotImplemented, "engine does not support query removal")
		return
	}
	s.mu.Lock()
	err = remover.RemoveQuery(core.QueryID(id))
	s.mu.Unlock()
	if err != nil {
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
	s.mu.Lock()
	id, err := s.engine.AddStream(g)
	s.mu.Unlock()
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
	s.mu.Lock()
	pairs, err := s.engine.StepAll(changes)
	s.mu.Unlock()
	if err != nil {
		HTTPError(w, StatusFor(err), "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, pairsResponse{Pairs: wirePairs(pairs)})
}

func (s *Server) handleCandidates(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		HTTPError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	s.mu.RLock()
	pairs := s.engine.Candidates()
	s.mu.RUnlock()
	WriteJSON(w, http.StatusOK, pairsResponse{Pairs: wirePairs(pairs)})
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
	s.mu.RLock()
	st := s.engine.Stats()
	s.mu.RUnlock()
	WriteJSON(w, http.StatusOK, statsResponse{
		Timestamps:     st.Timestamps,
		AvgFilterMs:    float64(st.AvgTimePerTimestamp()) / float64(time.Millisecond),
		CandidateRatio: st.CandidateRatio(),
	})
}

// handleMetrics serves the Prometheus text exposition: the registry's typed
// instruments (engine latency histograms, counters, gauges) followed by the
// engine's structure-size samples gathered from its obs.Collector surface,
// and the process-wide NPV dominance-kernel and query-index selectivity
// counters. Those counters are package-level atomics shared by every filter
// in the process, not state of the engine's filter, so the server emits them
// itself rather than through the engine's collector.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		HTTPError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = s.registry.WritePrometheus(w)
	if col, ok := s.engine.(obs.Collector); ok {
		s.mu.RLock()
		samples := obs.Gather(col)
		s.mu.RUnlock()
		_ = obs.WriteSamples(w, samples)
	}
	_ = obs.WriteSamples(w, obs.Gather(npv.KernelStats{}))
	_ = obs.WriteSamples(w, obs.Gather(qindex.Stats{}))
}

// WriteJSON answers with status and v encoded as the JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// HTTPError answers with status and a {"error": message} JSON body.
func HTTPError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
