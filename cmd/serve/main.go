// Command serve runs the continuous subgraph-search monitor as an HTTP
// service (see internal/server for the API). The engine runs one filter
// whose evaluation pool (-workers) fans each timestamp's streams out over
// the machine's cores, and -data-dir makes it durable: every mutation is
// write-ahead logged and, at most -checkpoint-interval later, folded into
// an atomic checkpoint, so a killed process recovers to exactly the
// acknowledged operations on restart. An idle engine writes nothing.
//
// -filter offers what a server needs: skyline (the production default), nl
// (the plain nested loop, the reference oracle) and exact (VF2 ground
// truth, up to a node limit per pair past which the pair is reported). The
// paper's baselines (dsc, branch, graphgrep, gindex1, gindex2) live in
// cmd/experiments and cmd/streamwatch.
//
//	serve [-addr :8080] [-filter skyline|nl|exact]
//	      [-depth 3] [-workers 0] [-data-dir dir]
//	      [-fsync always|interval|never] [-fsync-interval 100ms]
//	      [-checkpoint-interval 5m] [-max-body-bytes n]
//	      [-ingest-max-inflight n] [-ingest-rate ops/s] [-ingest-burst ops]
//	      [-ingest-read-timeout 10s]
//	      [-pprof addr] [-drain-timeout 5s]
//
// With -worker-id the process instead joins a replicated cluster as a worker
// node (requires -data-dir): it serves the internal/cluster worker API —
// role assignments, WAL-record replication, snapshots, and the per-group data
// plane — and takes its orders from a coordinator (see cmd/coordinator).
// Filter and depth flags must match across the whole cluster.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux for -pprof
	"os"
	"os/signal"
	"syscall"
	"time"

	"nntstream/internal/cluster"
	"nntstream/internal/core"
	"nntstream/internal/iso"
	"nntstream/internal/join"
	"nntstream/internal/npv"
	"nntstream/internal/obs"
	"nntstream/internal/server"
	"nntstream/internal/wal"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("serve: ")
	addr := flag.String("addr", ":8080", "listen address")
	filterName := flag.String("filter", "skyline", "filter: skyline, nl, exact (paper baselines live in cmd/experiments and cmd/streamwatch)")
	depth := flag.Int("depth", join.DefaultDepth, fmt.Sprintf("NNT depth bound for the NPV filters, in [1, %d]", npv.MaxDepth))
	workers := flag.Int("workers", 0, "evaluation workers for the NPV join filters (0 = GOMAXPROCS; 1 = sequential)")
	dataDir := flag.String("data-dir", "", "durability directory (WAL + checkpoints); empty runs in-memory only")
	fsync := flag.String("fsync", "always", "WAL fsync policy: always, interval, never")
	fsyncInterval := flag.Duration("fsync-interval", wal.DefaultSyncInterval, "longest -fsync interval leaves a write unsynced")
	checkpointInterval := flag.Duration("checkpoint-interval", 5*time.Minute, "longest a logged write waits to be folded into a checkpoint (an idle engine writes none); 0 disables (checkpoint on shutdown only)")
	maxBodyBytes := flag.Int64("max-body-bytes", server.DefaultMaxBodyBytes, "request body size cap (413 above it)")
	ingestMaxInflight := flag.Int("ingest-max-inflight", 0, "concurrent /v1/ingest budget; extra requests get 429 (0 = unlimited)")
	ingestRate := flag.Float64("ingest-rate", 0, "per-tenant /v1/ingest quota in edge ops per second (0 = unlimited)")
	ingestBurst := flag.Float64("ingest-burst", 0, "per-tenant /v1/ingest burst in edge ops (0 = same as -ingest-rate)")
	ingestReadTimeout := flag.Duration("ingest-read-timeout", 10*time.Second, "per-request /v1/ingest body read deadline; 0 leaves the global read timeout in charge")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Second, "graceful-shutdown deadline for in-flight requests")
	workerID := flag.String("worker-id", "", "join a replicated cluster as this worker (requires -data-dir); serves the cluster worker API for a coordinator instead of the single-node API")
	flag.Parse()

	factory, err := filterFactory(*filterName, *depth)
	if err != nil {
		log.Fatal(err)
	}
	registry := obs.NewRegistry()

	if *workerID != "" {
		runWorker(*workerID, *addr, *dataDir, *fsync, *fsyncInterval,
			*checkpointInterval, *drainTimeout, *workers, factory, registry)
		return
	}

	opts := core.DurableOptions{
		Workers:            *workers,
		FsyncInterval:      *fsyncInterval,
		CheckpointInterval: *checkpointInterval,
	}
	if *dataDir != "" {
		if opts.Fsync, err = wal.ParseSyncPolicy(*fsync); err != nil {
			log.Fatal(err)
		}
	}
	srv, durable, err := newServer(factory, *dataDir, opts, registry)
	if err != nil {
		log.Fatalf("opening data dir %s: %v", *dataDir, err)
	}
	if durable != nil {
		log.Printf("durable engine in %s (fsync=%s, checkpoint every %v): recovered %d queries, %d streams",
			*dataDir, opts.Fsync, *checkpointInterval, durable.QueryCount(), durable.StreamCount())
	}
	srv.SetMaxBodyBytes(*maxBodyBytes)
	srv.SetIngestLimits(server.IngestLimits{
		MaxInFlight: *ingestMaxInflight,
		TenantRate:  *ingestRate,
		TenantBurst: *ingestBurst,
		ReadTimeout: *ingestReadTimeout,
	})
	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go func() {
		log.Printf("listening on %s (filter=%s)", *addr, *filterName)
		if err := httpServer.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()

	var pprofServer *http.Server
	if *pprofAddr != "" {
		// DefaultServeMux carries the net/http/pprof handlers; keep it off
		// the API listener so profiling stays on an operator-only port.
		// The generous write timeout leaves room for long CPU profiles.
		pprofServer = &http.Server{
			Addr:              *pprofAddr,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      2 * time.Minute,
			IdleTimeout:       2 * time.Minute,
		}
		go func() {
			log.Printf("pprof listening on %s (/debug/pprof/)", *pprofAddr)
			if err := pprofServer.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("pprof: %v", err)
			}
		}()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	<-stop
	log.Print("shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop accepting new requests and let in-flight ones (a StepAll mid-write,
	// a profile download) run to completion before the engine checkpoints.
	if err := server.Drain(ctx, httpServer, pprofServer); err != nil {
		log.Printf("shutdown: %v", err)
	}
	if durable != nil {
		// Final checkpoint + WAL release; after this a restart boots from
		// the checkpoint alone.
		if err := durable.Close(); err != nil {
			log.Fatalf("closing durable engine: %v", err)
		}
		log.Printf("checkpoint written to %s", *dataDir)
	}
}

// runWorker serves the cluster worker API until interrupted. The worker is
// passive — the coordinator pushes roles and drives failover — so beyond
// opening group engines lazily there is nothing to start here.
func runWorker(id, addr, dataDir, fsync string, fsyncInterval, checkpointInterval,
	drainTimeout time.Duration, workers int, factory func() core.Filter,
	registry *obs.Registry) {
	if dataDir == "" {
		log.Fatal("-worker-id requires -data-dir (replicas recover from their own WAL)")
	}
	policy, err := wal.ParseSyncPolicy(fsync)
	if err != nil {
		log.Fatal(err)
	}
	wk := cluster.NewWorker(id, dataDir, cluster.WorkerOptions{
		Factory:            core.FilterFactory(factory),
		EvalWorkers:        workers,
		Fsync:              policy,
		FsyncInterval:      fsyncInterval,
		CheckpointInterval: checkpointInterval,
		Metrics:            cluster.NewMetrics(registry),
		WALMetrics:         wal.NewMetrics(registry),
	})

	httpServer := &http.Server{
		Addr:              addr,
		Handler:           workerHandler(wk, registry),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go func() {
		log.Printf("worker %s listening on %s (data in %s)", id, addr, dataDir)
		if err := httpServer.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Print("shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := server.Drain(ctx, httpServer); err != nil {
		log.Printf("shutdown: %v", err)
	}
	if err := wk.Close(); err != nil {
		log.Fatalf("closing worker: %v", err)
	}
	log.Printf("group checkpoints written to %s", dataDir)
}

// newServer builds the engine and API server serve runs: a durable engine
// over dataDir whose WAL instruments join registry, or an in-memory Monitor
// when dataDir is empty, in which case durable is nil.
func newServer(factory func() core.Filter, dataDir string, opts core.DurableOptions,
	registry *obs.Registry) (srv *server.Server, durable *core.DurableEngine, err error) {
	var engine server.Engine
	if dataDir == "" {
		f := factory()
		if pf, ok := f.(core.ParallelFilter); ok {
			pf.SetWorkers(opts.Workers)
		}
		engine = core.NewMonitor(f)
	} else {
		opts.Metrics = wal.NewMetrics(registry)
		if durable, err = core.OpenDurableEngine(dataDir, core.FilterFactory(factory), opts); err != nil {
			return nil, nil, err
		}
		engine = durable
	}
	return server.NewWithRegistry(engine, registry), durable, nil
}

// workerHandler serves the cluster worker API and the worker's /v1/metrics,
// which carries the process-global kernel and index counters next to the
// replication and WAL instruments.
func workerHandler(wk *cluster.Worker, registry *obs.Registry) http.Handler {
	server.RegisterProcessMetrics(registry)
	mux := http.NewServeMux()
	mux.Handle("/", wk.Handler())
	mux.Handle("GET /v1/metrics", server.MetricsHandler(registry))
	return mux
}

// exactNodeLimit bounds the VF2 search of one (stream, query) pair under
// -filter exact. A search that reaches it reports the pair as a candidate,
// which over-reports and never drops a match. It is about 0.08 s of search
// on a 2-vCPU VM, while the searches of typical queries end within a few
// hundred nodes; without it one hostile query holds the engine's write
// lock for as long as its search runs, minutes or more.
const exactNodeLimit = 50_000

// filterFactory returns the constructor of the named filter at depth,
// rejecting a depth the NPV store cannot count before any filter is built:
// a bad -depth fails at startup, not in the first request that builds one.
func filterFactory(name string, depth int) (func() core.Filter, error) {
	if depth < 1 || depth > npv.MaxDepth {
		return nil, fmt.Errorf("-depth must be in [1, %d], got %d", npv.MaxDepth, depth)
	}
	switch name {
	case "skyline":
		return func() core.Filter { return join.NewSkyline(depth) }, nil
	case "nl":
		return func() core.Filter { return join.NewNL(depth) }, nil
	case "exact":
		return func() core.Filter { return join.NewExact(iso.WithNodeLimit(exactNodeLimit)) }, nil
	default:
		return nil, fmt.Errorf("unknown filter %q", name)
	}
}
