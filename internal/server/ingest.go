package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/obs"
	"nntstream/internal/wal"
)

// BatchStepper is the optional group-commit surface: engines that can apply
// a sequence of timestamps under one durability barrier (core.DurableEngine)
// implement it. Engines without it fall back to per-step StepAll, which is
// semantically identical — the batch path only changes how many fsyncs the
// WAL pays.
type BatchStepper interface {
	StepAllBatch(batch []map[core.StreamID]graph.ChangeSet) (applied, pairs int, err error)
}

// ingestMetrics are the nntstream_ingest_* instruments: admission-control
// visibility (shed and quota denials, in-flight level) plus the throughput
// counters the loadgen harness and dashboards read.
type ingestMetrics struct {
	requests     *obs.Counter
	steps        *obs.Counter
	ops          *obs.Counter
	pairs        *obs.Counter
	bytes        *obs.Counter
	rejected     *obs.Counter
	shedInflight *obs.Counter
	shedQuota    *obs.Counter
	inflight     *obs.Gauge
	batchSeconds *obs.Histogram
}

func newIngestMetrics(r *obs.Registry) *ingestMetrics {
	return &ingestMetrics{
		requests: r.Counter("nntstream_ingest_requests_total",
			"Ingest requests received (any outcome)."),
		steps: r.Counter("nntstream_ingest_steps_total",
			"Timestamps applied through the ingest path."),
		ops: r.Counter("nntstream_ingest_ops_total",
			"Edge operations applied through the ingest path."),
		pairs: r.Counter("nntstream_ingest_pairs_total",
			"Candidate pairs reported by ingest-applied timestamps."),
		bytes: r.Counter("nntstream_ingest_bytes_total",
			"Ingest request body bytes read."),
		rejected: r.Counter("nntstream_ingest_rejected_total",
			"Ingest batches rejected before apply (malformed, oversized, unknown stream)."),
		shedInflight: r.Counter("nntstream_ingest_shed_inflight_total",
			"Ingest requests shed by the in-flight budget (429)."),
		shedQuota: r.Counter("nntstream_ingest_shed_quota_total",
			"Ingest batches denied by a tenant quota (429)."),
		inflight: r.Gauge("nntstream_ingest_inflight",
			"Ingest requests currently executing."),
		batchSeconds: r.Histogram("nntstream_ingest_batch_seconds",
			"Latency of one ingest batch: read, decode, group-commit, apply.", nil),
	}
}

// SetIngestLimits replaces the ingest admission-control configuration.
// Call it before the handler starts serving (it swaps the whole admission
// state, forgetting tenant buckets). Requests already in flight are safe
// either way — each request captures the admission instance it acquired
// from and releases on that same instance — but a swap mid-serve silently
// resets in-flight accounting and tenant buckets for new requests.
func (s *Server) SetIngestLimits(limits IngestLimits) {
	s.adm = newAdmission(limits)
}

type ingestResponse struct {
	Steps int `json:"steps"`
	Ops   int `json:"ops"`
	Pairs int `json:"pairs"`
}

// handleIngest is the batched write path: an NDJSON body of step frames
// (see ingestdecode.go for the wire format), applied as one group-committed
// batch. The whole body is decoded and validated before the engine sees
// anything, so a malformed frame anywhere rejects the batch with the WAL
// untouched. Apply-side failures (an unknown stream, an invalid change set)
// are per step: earlier steps stay applied and durable, and the response
// reports how far the batch got. The exception is a failed group-commit
// fsync (wal.ErrSyncFailed): durability of the whole batch is then unknown,
// so the response reports steps_applied 0 rather than promise a durable
// prefix.
//
// Admission control runs in two stages: the in-flight budget sheds whole
// requests before their body is read, and the per-tenant token bucket
// (keyed by the X-Tenant header) charges one token per edge op after
// decode, when the batch's true cost is known. Both denials are 429 with a
// Retry-After hint.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		HTTPError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	s.ingest.requests.Inc()
	// Pin the admission instance for the whole request: a SetIngestLimits
	// swap mid-request must not let acquire and release land on different
	// instances (that would drive the new counter negative and permanently
	// widen the in-flight budget).
	adm := s.adm
	if !adm.acquire() {
		s.ingest.shedInflight.Inc()
		w.Header().Set("Retry-After", "1")
		HTTPError(w, http.StatusTooManyRequests, "ingest in-flight budget exhausted")
		return
	}
	// LIFO order matters: release must run before the deferred gauge update,
	// or the gauge records the pre-release count and never drains to zero.
	defer func() { s.ingest.inflight.Set(float64(adm.inFlight())) }()
	defer adm.release()
	s.ingest.inflight.Set(float64(adm.inFlight()))
	start := time.Now()

	if t := adm.limits.ReadTimeout; t > 0 {
		// Bound the body read so a slow client cannot camp on an in-flight
		// slot. Failure to set the deadline (HTTP/2 on some configs) is not
		// fatal — the outer server's read timeout still applies.
		_ = http.NewResponseController(w).SetReadDeadline(time.Now().Add(t))
	}
	body := http.MaxBytesReader(w, r.Body, s.maxBodyBytes)
	defer body.Close()
	data, err := io.ReadAll(body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		switch {
		case errors.As(err, &tooLarge):
			s.ingest.rejected.Inc()
			HTTPError(w, http.StatusRequestEntityTooLarge,
				"ingest body exceeds %d bytes", tooLarge.Limit)
		case errors.Is(err, os.ErrDeadlineExceeded):
			s.ingest.rejected.Inc()
			HTTPError(w, http.StatusRequestTimeout, "ingest body read timed out")
		default:
			s.ingest.rejected.Inc()
			HTTPError(w, http.StatusBadRequest, "reading ingest body: %v", err)
		}
		return
	}
	s.ingest.bytes.Add(int64(len(data)))

	batch, opCount, err := decodeIngestBatch(data)
	if err != nil {
		s.ingest.rejected.Inc()
		HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(batch) == 0 {
		s.ingest.rejected.Inc()
		HTTPError(w, http.StatusBadRequest, "empty ingest batch")
		return
	}

	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = "default"
	}
	if ok, retryAfter := adm.admitOps(tenant, opCount); !ok {
		s.ingest.shedQuota.Inc()
		w.Header().Set("Retry-After",
			strconv.Itoa(int((retryAfter+time.Second-1)/time.Second)))
		HTTPError(w, http.StatusTooManyRequests,
			"tenant %q over ingest quota (%d ops)", tenant, opCount)
		return
	}

	s.mu.Lock()
	applied, pairs, err := stepBatch(s.engine, batch)
	s.mu.Unlock()
	s.ingest.steps.Add(int64(applied))
	s.ingest.pairs.Add(int64(pairs))
	if applied == len(batch) {
		s.ingest.ops.Add(int64(opCount))
	} else {
		n := 0
		for _, changes := range batch[:applied] {
			for _, cs := range changes {
				n += len(cs)
			}
		}
		s.ingest.ops.Add(int64(n))
	}
	s.ingest.batchSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		if errors.Is(err, wal.ErrSyncFailed) {
			// The group commit's closing fsync did not succeed: the engine's
			// in-memory state may run ahead of the durable WAL, so no step of
			// this batch can be promised as durable. Report zero applied with
			// a distinct error instead of claiming a durable prefix.
			WriteJSON(w, http.StatusInternalServerError, map[string]any{
				"error":         fmt.Sprintf("batch durability unknown: %v", err),
				"steps_applied": 0,
			})
			return
		}
		WriteJSON(w, StatusFor(err), map[string]any{
			"error":         fmt.Sprintf("step %d: %v", applied, err),
			"steps_applied": applied,
		})
		return
	}
	WriteJSON(w, http.StatusOK, ingestResponse{Steps: applied, Ops: opCount, Pairs: pairs})
}

// stepBatch routes a decoded batch to the engine: group-committed when the
// engine supports it, otherwise step by step (identical semantics, one
// durability barrier per step).
func stepBatch(engine Engine, batch []map[core.StreamID]graph.ChangeSet) (applied, pairs int, err error) {
	if bs, ok := engine.(BatchStepper); ok {
		return bs.StepAllBatch(batch)
	}
	for _, changes := range batch {
		ps, err := engine.StepAll(changes)
		if err != nil {
			return applied, pairs, err
		}
		applied++
		pairs += len(ps)
	}
	return applied, pairs, nil
}

// decodeIngestBatch splits an NDJSON body into lines, decodes every frame,
// and materializes the engine-facing change-set maps. All-or-nothing: any
// defect on any line rejects the whole body before the engine is touched.
// Blank lines are skipped, so both newline-terminated and newline-separated
// bodies decode.
func decodeIngestBatch(data []byte) ([]map[core.StreamID]graph.ChangeSet, int, error) {
	var dec IngestDecoder
	var batch []map[core.StreamID]graph.ChangeSet
	opCount := 0
	lineNo := 0
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		lineNo++
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		step, err := dec.DecodeStep(line)
		if err != nil {
			return nil, 0, fmt.Errorf("ingest line %d: %w", lineNo, err)
		}
		changes := make(map[core.StreamID]graph.ChangeSet, len(step.Groups))
		for gi := range step.Groups {
			g := &step.Groups[gi]
			sid := core.StreamID(g.Stream)
			if _, dup := changes[sid]; dup {
				return nil, 0, fmt.Errorf("ingest line %d: duplicate stream %d", lineNo, g.Stream)
			}
			// Copy out of the decoder's reused backing storage: the engine
			// (and the WAL record built from this map) retains the slice.
			cs := make(graph.ChangeSet, len(g.Ops))
			copy(cs, g.Ops)
			changes[sid] = cs
			opCount += len(cs)
		}
		batch = append(batch, changes)
	}
	return batch, opCount, nil
}
