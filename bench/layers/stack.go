package main

import (
	"bytes"
	"net/http"
	"time"

	"nntstream/internal/core"
	"nntstream/internal/join"
	"nntstream/internal/obs"
	"nntstream/internal/server"
	"nntstream/internal/wal"
)

// stack is the serve process's request path assembled in-process exactly as
// cmd/serve assembles it for `serve -data-dir <dir>` with every other flag
// at its default: the DSC filter at the default depth, one durable Monitor
// whose evaluation pool is GOMAXPROCS wide, fsync on every commit, a
// 5-minute background checkpoint. If cmd/serve's defaults change, change
// this with them — bench/e2e keeps measuring the real thing either way.
type stack struct {
	engine   *core.DurableEngine
	handler  http.Handler
	walBytes int64
	resp     respWriter
}

// openStack boots the stack over dir. With a tracer every seam is wrapped
// by the benchmark's decorators; without one the stack is plain, which is
// the pass tracing overhead is measured against.
//
// checkpoints false leaves the background checkpoint loop out. An engine
// that is opened and crashed again within milliseconds needs that:
// DurableEngine.stopLoop clears the stop-channel field before the loop
// goroutine has necessarily read it, and the loop then parks on a nil
// channel while Crash waits for it forever (seen here; a defect of
// internal/core this PR may not touch).
func openStack(dir string, t *tracer, checkpoints bool) (*stack, error) {
	s := &stack{}
	reg := obs.NewRegistry()
	factory := func() core.Filter {
		f := join.NewDSC(join.DefaultDepth)
		if t != nil {
			return tracedFilter{t: t, inner: f}
		}
		return f
	}
	opts := core.DurableOptions{
		Fsync:         wal.SyncAlways,
		FsyncInterval: wal.DefaultSyncInterval,
		Metrics:       wal.NewMetrics(reg),
	}
	if checkpoints {
		opts.CheckpointInterval = 5 * time.Minute
	}
	if t != nil {
		opts.WrapFile = func(f wal.LogFile) wal.LogFile {
			return tracedFile{LogFile: f, t: t, bytes: &s.walBytes}
		}
	}
	eng, err := core.OpenDurableEngine(dir, factory, opts)
	if err != nil {
		return nil, err
	}
	s.engine = eng
	var e server.Engine = eng
	if t != nil {
		e = tracedEngine{t: t, inner: eng}
	}
	srv := server.NewWithRegistry(e, reg)
	srv.SetIngestLimits(server.IngestLimits{ReadTimeout: 10 * time.Second})
	s.handler = srv.Handler()
	if t != nil {
		s.handler = tracedHandler{t: t, inner: s.handler}
	}
	return s, nil
}

// do calls the handler directly: no socket, no net/http server loop. The
// returned body aliases the stack's reused response buffer.
func (s *stack) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, "http://bench"+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	s.resp.reset()
	s.handler.ServeHTTP(&s.resp, req)
	return s.resp.status, s.resp.body.Bytes(), nil
}

// respWriter is the smallest http.ResponseWriter that keeps the answer.
type respWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *respWriter) reset() {
	w.header = http.Header{}
	w.status = http.StatusOK
	w.body.Reset()
}

func (w *respWriter) Header() http.Header         { return w.header }
func (w *respWriter) WriteHeader(status int)      { w.status = status }
func (w *respWriter) Write(p []byte) (int, error) { return w.body.Write(p) }
