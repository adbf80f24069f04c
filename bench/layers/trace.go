package main

import (
	"net/http"
	"strings"
	"sync"
	"time"

	"nntstream/bench/measure"
	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/wal"
)

// tracer records spans from the benchmark's own decorators, which sit at the
// seams the system already exposes: http.Handler, server.Engine (and its
// optional batch/removal surfaces), core.Filter via the FilterFactory, and
// wal.LogFile via DurableOptions.WrapFile. Nothing inside the system is
// instrumented.
//
// Requests arrive one at a time, so "the current request" and "the current
// engine call" are single slots; filter spans are opened from the engine's
// worker goroutines while the engine call that caused them is blocked
// waiting, which is what makes reading those slots under the mutex sound.
type tracer struct {
	mu     sync.Mutex
	on     bool
	t0     time.Time
	spans  []measure.Span
	req    int // index of the current request
	root   int // span index of the current request, -1 outside one
	engine int // span index of the current engine call, -1 outside one
}

func newTracer() *tracer { return &tracer{t0: time.Now(), root: -1, engine: -1} }

type level int

const (
	atRoot   level = iota // a request span
	inRoot                // child of the current request
	inEngine              // child of the current engine call
)

// begin opens a span and returns its index, or -1 when tracing is off or
// the span has no parent to hang from (WAL writes during open, say).
func (t *tracer) begin(name string, lv level) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	parent := -1
	switch lv {
	case inRoot:
		parent = t.root
	case inEngine:
		parent = t.engine
	}
	if lv != atRoot && parent < 0 {
		return -1
	}
	idx := len(t.spans)
	t.spans = append(t.spans, measure.Span{Name: name, Parent: parent, Req: t.req})
	switch lv {
	case atRoot:
		t.root = idx
	case inRoot:
		t.engine = idx
	}
	t.spans[idx].Start = time.Since(t.t0).Nanoseconds()
	return idx
}

func (t *tracer) end(idx int) {
	if idx < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[idx].End = now
	switch idx {
	case t.root:
		t.root = -1
		t.req++
	case t.engine:
		t.engine = -1
	}
}

// tracedHandler names each request's root span after its route.
type tracedHandler struct {
	t     *tracer
	inner http.Handler
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name := "server.other"
	switch {
	case r.URL.Path == "/v1/ingest":
		name = "server.ingest"
	case r.URL.Path == "/v1/candidates":
		name = "server.read"
	case r.URL.Path == "/v1/queries":
		name = "server.add_query"
	case strings.HasPrefix(r.URL.Path, "/v1/queries/"):
		name = "server.remove_query"
	}
	idx := h.t.begin(name, atRoot)
	h.inner.ServeHTTP(w, r)
	h.t.end(idx)
}

// tracedEngine decorates the engine surface the server drives:
// server.Engine, server.BatchStepper, server.QueryRemover and the metrics
// hook.
type tracedEngine struct {
	t     *tracer
	inner *core.DurableEngine
}

func (e tracedEngine) AddQuery(q *graph.Graph) (core.QueryID, error) {
	idx := e.t.begin("core.add_query", inRoot)
	defer e.t.end(idx)
	return e.inner.AddQuery(q)
}

func (e tracedEngine) RemoveQuery(id core.QueryID) error {
	idx := e.t.begin("core.remove_query", inRoot)
	defer e.t.end(idx)
	return e.inner.RemoveQuery(id)
}

func (e tracedEngine) AddStream(g0 *graph.Graph) (core.StreamID, error) {
	idx := e.t.begin("core.add_stream", inRoot)
	defer e.t.end(idx)
	return e.inner.AddStream(g0)
}

func (e tracedEngine) StepAll(changes map[core.StreamID]graph.ChangeSet) ([]core.Pair, error) {
	idx := e.t.begin("core.step_batch", inRoot)
	defer e.t.end(idx)
	return e.inner.StepAll(changes)
}

func (e tracedEngine) StepAllBatch(batch []map[core.StreamID]graph.ChangeSet) (int, int, error) {
	idx := e.t.begin("core.step_batch", inRoot)
	defer e.t.end(idx)
	return e.inner.StepAllBatch(batch)
}

func (e tracedEngine) Candidates() []core.Pair {
	idx := e.t.begin("core.candidates", inRoot)
	defer e.t.end(idx)
	return e.inner.Candidates()
}

func (e tracedEngine) Stats() core.Stats                 { return e.inner.Stats() }
func (e tracedEngine) SetMetrics(em *core.EngineMetrics) { e.inner.SetMetrics(em) }

// tracedFilter decorates one filter instance, forwarding the optional
// surfaces the engines probe for (batch apply, worker sizing, dynamic
// queries).
type tracedFilter struct {
	t     *tracer
	inner core.DynamicFilter
}

func (f tracedFilter) Name() string { return f.inner.Name() }

func (f tracedFilter) AddQuery(id core.QueryID, q *graph.Graph) error {
	idx := f.t.begin("join.add_query", inEngine)
	defer f.t.end(idx)
	return f.inner.AddQuery(id, q)
}

func (f tracedFilter) RemoveQuery(id core.QueryID) error {
	idx := f.t.begin("join.remove_query", inEngine)
	defer f.t.end(idx)
	return f.inner.RemoveQuery(id)
}

func (f tracedFilter) AddStream(id core.StreamID, g0 *graph.Graph) error {
	idx := f.t.begin("join.add_stream", inEngine)
	defer f.t.end(idx)
	return f.inner.AddStream(id, g0)
}

func (f tracedFilter) Apply(id core.StreamID, cs graph.ChangeSet) error {
	idx := f.t.begin("join.apply_all", inEngine)
	defer f.t.end(idx)
	return f.inner.Apply(id, cs)
}

func (f tracedFilter) ApplyAll(changes map[core.StreamID]graph.ChangeSet) error {
	idx := f.t.begin("join.apply_all", inEngine)
	defer f.t.end(idx)
	return f.inner.(core.BatchApplier).ApplyAll(changes)
}

func (f tracedFilter) SetWorkers(n int) { f.inner.(core.ParallelFilter).SetWorkers(n) }

func (f tracedFilter) Candidates() []core.Pair {
	idx := f.t.begin("join.candidates", inEngine)
	defer f.t.end(idx)
	return f.inner.Candidates()
}

// tracedFile times the WAL's file operations and counts what it writes.
type tracedFile struct {
	wal.LogFile
	t     *tracer
	bytes *int64
}

func (f tracedFile) Write(p []byte) (int, error) {
	idx := f.t.begin("wal.write", inEngine)
	defer f.t.end(idx)
	if idx >= 0 {
		*f.bytes += int64(len(p))
	}
	return f.LogFile.Write(p)
}

func (f tracedFile) Sync() error {
	idx := f.t.begin("wal.sync", inEngine)
	defer f.t.end(idx)
	return f.LogFile.Sync()
}
