// Command coordinator fronts a fault-tolerant cluster of workers (see
// internal/cluster) with the same /v1 API the single-node serve command
// exposes: queries are broadcast to every replication group, streams are
// distributed, and candidate sets are merged, so existing clients work
// unchanged. The coordinator heartbeats workers, promotes caught-up replicas
// when primaries die, and degrades to stale reads (explicit X-NNTStream-Stale
// headers) plus fast-failing writes when a group has no safe leader.
//
//	coordinator -config cluster.json [-addr :8090] [-heartbeat 500ms]
//	            [-miss-threshold 3] [-rpc-timeout 5s] [-retry-attempts 4]
//	            [-drain-timeout 5s]
//
// The config file is the JSON form of cluster.Config:
//
//	{"workers": [{"id": "w0", "addr": "127.0.0.1:8081"},
//	             {"id": "w1", "addr": "127.0.0.1:8082"}],
//	 "groups": 2, "replication_factor": 2}
//
// Start each worker with `serve -worker-id w0 -addr :8081 -data-dir d0 ...`
// (same -filter/-depth on every node), then start the coordinator.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nntstream/internal/cluster"
	"nntstream/internal/obs"
	"nntstream/internal/retry"
	"nntstream/internal/server"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("coordinator: ")
	addr := flag.String("addr", ":8090", "client-facing listen address")
	configPath := flag.String("config", "", "cluster topology JSON (required)")
	heartbeat := flag.Duration("heartbeat", 500*time.Millisecond, "worker heartbeat interval")
	missThreshold := flag.Int("miss-threshold", 3, "consecutive missed heartbeats before a worker is declared dead")
	rpcTimeout := flag.Duration("rpc-timeout", cluster.DefaultRPCTimeout, "per-attempt deadline on worker RPCs")
	retryAttempts := flag.Int("retry-attempts", retry.DefaultMaxAttempts, "attempts per worker RPC (transient failures only)")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Second, "graceful-shutdown deadline for in-flight requests")
	flag.Parse()

	if *configPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	data, err := os.ReadFile(*configPath)
	if err != nil {
		log.Fatal(err)
	}
	var cfg cluster.Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		log.Fatalf("parsing %s: %v", *configPath, err)
	}

	registry := obs.NewRegistry()
	coord, err := cluster.NewCoordinator(cfg, cluster.CoordinatorOptions{
		Transport: &cluster.RetryTransport{
			Next:   &cluster.HTTPTransport{Timeout: *rpcTimeout},
			Policy: retry.Policy{MaxAttempts: *retryAttempts},
		},
		MissThreshold:     *missThreshold,
		HeartbeatInterval: *heartbeat,
		Registry:          registry,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := coord.Start(context.Background()); err != nil {
		log.Fatalf("starting cluster: %v", err)
	}
	log.Printf("coordinating %d workers, %d groups, rf=%d",
		len(cfg.Workers), cfg.Groups, cfg.ReplicationFactor)

	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           coord.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go func() {
		log.Printf("listening on %s", *addr)
		if err := httpServer.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Print("shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := server.Drain(ctx, httpServer); err != nil {
		log.Printf("shutdown: %v", err)
	}
	coord.Stop()
}
