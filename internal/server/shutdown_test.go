package server

import (
	"context"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nntstream/internal/core"
	"nntstream/internal/graph"
)

// blockingEngine stalls StepAll until released, so the test can hold a
// request in flight across a Drain call.
type blockingEngine struct {
	nopEngine
	entered chan struct{} // closed when StepAll is running
	release chan struct{} // StepAll returns once this closes
	done    atomic.Bool   // set just before StepAll returns
}

func (e *blockingEngine) StepAll(map[core.StreamID]graph.ChangeSet) ([]core.Pair, error) {
	close(e.entered)
	<-e.release
	e.done.Store(true)
	return nil, nil
}

// TestDrainWaitsForInFlightStep holds a StepAll mid-flight, drains, and
// verifies Drain returns only after the request completed with its response
// delivered — the graceful-shutdown contract cmd/serve relies on.
func TestDrainWaitsForInFlightStep(t *testing.T) {
	eng := &blockingEngine{entered: make(chan struct{}), release: make(chan struct{})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: New(eng).Handler()}
	go hs.Serve(ln)

	status := make(chan int, 1)
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/step", "application/json",
			strings.NewReader(`{"changes":{}}`))
		if err != nil {
			status <- -1
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	<-eng.entered

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- Drain(ctx, hs, nil) // nil exercises the optional-listener path
	}()

	// The drain must not finish while the step is still running.
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) with a request in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	// New connections are refused during the drain.
	if _, err := http.Get("http://" + ln.Addr().String() + "/v1/healthz"); err == nil {
		t.Fatal("request accepted while draining")
	}

	close(eng.release)
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not return after the request completed")
	}
	if !eng.done.Load() {
		t.Fatal("Drain returned before StepAll completed")
	}
	if got := <-status; got != http.StatusOK {
		t.Fatalf("in-flight step status %d, want 200", got)
	}
}

// TestDrainDeadlineAbandonsStuckRequest: a request that never finishes cannot
// wedge shutdown past the drain deadline.
func TestDrainDeadlineAbandonsStuckRequest(t *testing.T) {
	eng := &blockingEngine{entered: make(chan struct{}), release: make(chan struct{})}
	defer close(eng.release)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: New(eng).Handler()}
	go hs.Serve(ln)
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/step", "application/json",
			strings.NewReader(`{"changes":{}}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-eng.entered

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := Drain(ctx, hs); err == nil {
		t.Fatal("Drain with a stuck request returned nil, want deadline error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Drain took %v past a 100ms deadline", elapsed)
	}
}
