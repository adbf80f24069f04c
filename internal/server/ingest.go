package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/obs"
	"nntstream/internal/wal"
)

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
			"Ingest batches rejected before apply (malformed, oversized, over the tenant burst, unknown stream)."),
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
// Retry-After hint. A batch costing more than the tenant burst could never
// be admitted, however long its client waited, so it is rejected with 413.
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
	data, err := readBody(w, r, s.maxBodyBytes)
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
	if adm.limits.TenantRate > 0 && float64(opCount) > adm.limits.TenantBurst {
		s.ingest.rejected.Inc()
		HTTPError(w, http.StatusRequestEntityTooLarge,
			"ingest batch of %d ops exceeds the tenant burst of %g ops", opCount, adm.limits.TenantBurst)
		return
	}
	if ok, retryAfter := adm.admitOps(tenant, opCount); !ok {
		s.ingest.shedQuota.Inc()
		w.Header().Set("Retry-After",
			strconv.Itoa(int((retryAfter+time.Second-1)/time.Second)))
		HTTPError(w, http.StatusTooManyRequests,
			"tenant %q over ingest quota (%d ops)", tenant, opCount)
		return
	}

	applied, pairs, err := s.engine.StepAllBatch(batch)
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
	writeBody(w, http.StatusOK, appendIngest(nil, ingestResponse{Steps: applied, Ops: opCount, Pairs: pairs}))
}

// readBody reads r's body, capped at limit. A body that declares a length
// within the cap is read into one buffer of that size (net/http ends such a
// body at its declared length): io.ReadAll's growth from 512 bytes
// allocated over four times a 64 KiB body. A client that declares a length
// and stalls holds at most limit bytes until the read deadline.
// decodeIngestBatch copies everything it keeps, so the buffer dies with the
// request.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, limit)
	defer body.Close()
	n := r.ContentLength
	if n <= 0 || n > limit {
		return io.ReadAll(body)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(body, data); err != nil {
		return nil, err
	}
	return data, nil
}

// appendIngest appends the ingest success body to b, the bytes encoding/json
// writes for r.
func appendIngest(b []byte, r ingestResponse) []byte {
	b = append(b, `{"steps":`...)
	b = strconv.AppendInt(b, int64(r.Steps), 10)
	b = append(b, `,"ops":`...)
	b = strconv.AppendInt(b, int64(r.Ops), 10)
	b = append(b, `,"pairs":`...)
	b = strconv.AppendInt(b, int64(r.Pairs), 10)
	return append(b, "}\n"...)
}

// ingestDecoders keeps warm decoders across requests, so decoding a frame
// allocates nothing for the frame's size once a decoder has seen one as
// large.
var ingestDecoders = sync.Pool{New: func() any { return new(IngestDecoder) }}

// decodeIngestBatch splits an NDJSON body into lines, decodes every frame,
// and materializes the engine-facing change-set maps. All-or-nothing: any
// defect on any line rejects the whole body before the engine is touched.
// Blank lines are skipped, so both newline-terminated and newline-separated
// bodies decode. The ops are copied out of the pooled decoder, which keeps
// no reference to the body once it is back in the pool.
func decodeIngestBatch(data []byte) ([]map[core.StreamID]graph.ChangeSet, int, error) {
	dec := ingestDecoders.Get().(*IngestDecoder)
	defer func() {
		dec.buf = nil
		ingestDecoders.Put(dec)
	}()
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
