# Verification gate: everything CI (and a pre-commit run) should enforce.
GO ?= go

# Per-target fuzzing budget for fuzzsmoke. Pre-commit keeps the 5s default;
# the nightly CI schedule raises it (FUZZTIME=60s) for a deeper campaign.
FUZZTIME ?= 5s

.PHONY: verify fmt vet lint lint-fix-audit build bench-build test race crashtest crashtest-cluster fuzzsmoke loadtest

# No separate lint step: test runs nntlint over the module through
# cmd/nntlint's TestCleanTreeExitsZero.
verify: fmt vet build bench-build test race

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Project-specific invariants go vet cannot know about: lock discipline,
# errors.Is on sentinels, sorted map iteration, WAL append-before-apply, and
# the interprocedural call-graph checks (blocking under locks, lock-order
# cycles, context re-rooting, hot-path allocations). Suppress a conservative
# finding in place with `//lint:ignore <analyzer> <reason>`. `make test`
# runs the same suite; this target prints the findings on their own.
lint:
	$(GO) run ./cmd/nntlint ./...

# Suppression debt review: every active //lint:ignore and //nnt:nonblocking
# in shipped code, with file:line and the reviewed reason. Fixture
# suppressions under testdata exercise the mechanism and are excluded, as
# are the analyzers' own marker-matching string literals (the grep anchors
# on comment position).
lint-fix-audit:
	@grep -rnE --include='*.go' '^[[:space:]]*//(lint:ignore|nnt:nonblocking) ' \
		cmd internal | grep -v '/testdata/' | sed 's/^[[:space:]]*//' || true

# The cross builds keep the per-platform files compiling: internal/wal's
# writeback hint is linux/amd64 and linux/arm64 only (package syscall has no
# sync_file_range on linux/arm), and every other platform takes the no-op.
build:
	$(GO) build ./...
	GOOS=darwin GOARCH=arm64 $(GO) build ./...
	GOOS=linux GOARCH=arm $(GO) build ./...

# The benchmark is a module of its own (bench/go.mod, replace nntstream =>
# ../), so the root ./... patterns never see it. Vet and test it here, or an
# internal API change that breaks bench/layers is only discovered when the
# benchmark next runs.
bench-build:
	$(GO) -C bench vet ./... && $(GO) -C bench test ./...

test:
	$(GO) test ./...

# The engines and the HTTP server claim concurrent-read safety; hold them to
# it under the race detector. The WAL claims safe concurrent appends/syncs.
# internal/join carries the parallel ApplyAll fan-out and internal/gindex
# re-mines lazily inside Candidates and CandidateCount, which concurrent
# readers call at once — both race-critical.
# internal/npv holds the sealed packed vectors read concurrently by that
# fan-out and the atomic kernel counters. internal/qindex is the sealed
# query-candidate index read concurrently by the same fan-out.
# internal/cluster mixes the coordinator's heartbeat goroutine with the data
# plane and ships WAL records from under the engine lock; internal/retry backs
# every cluster RPC.
#
# Coverage audit against the blockhold/lockorder lock inventory (mutex-holding
# shipped packages): cluster (Coordinator.mu, workerGroup.mu, FaultTransport.mu),
# core (DurableEngine.mu, Monitor.mu), gindex (Filter.mu), obs
# (Registry.mu), server (Server.mu, admission.mu), wal (Log.mu) — all
# covered below. The test-support simdisk (Disk.mu) runs under the detector
# through the core, server and wal tests that use it. internal/obs was the
# gap (its registry is scraped concurrently with engine steps) and is now
# included. cmd/loadgen's open-loop scheduler fans HTTP exchanges out across
# goroutines, and cmd/serve's tests scrape the assembled serve and worker
# stacks, so both run under the detector too. internal/analysis also matches the grep but only
# inside its own analyzer pattern strings; it runs single-threaded under the
# driver and stays out of the race gate.
race:
	$(GO) test -race ./internal/core/... ./internal/server/... ./internal/wal/... \
		./internal/join/... ./internal/gindex/... ./internal/npv/... ./internal/qindex/... \
		./internal/cluster/... ./internal/retry/... ./internal/obs/... ./cmd/loadgen/... \
		./cmd/serve/...

# Crash-recovery property tests, most of them on the simulated disk
# (internal/simdisk), which keeps only what was synced: the engine
# harness's seeds (FuzzEngineMatchesReference: honest crashes that must
# lose no acknowledged record, lying crashes that cut the WAL, restarts, and
# every cut of each seed's final WAL), injected write, sync and rename
# faults, checkpoint crash windows, the recovery that cuts a rejected
# record left as the log's last frame (TestRecover*), and the disk's own
# crash model.
# -count=3 shakes out ordering assumptions in the recovery paths.
crashtest:
	$(GO) test -count=3 -run 'Crash|Recover|Torn|Fault|EngineMatchesReference' ./internal/wal/... ./internal/core/... ./internal/simdisk/...

# Cluster fault drills: a primary killed at every WAL-record boundary (answers
# must stay bit-identical to a single node), randomized partition/heal
# schedules, degraded-mode behavior, rejoin-after-failover, and the live
# heartbeat loop. -count=1 defeats the test cache so every run re-drills.
crashtest-cluster:
	$(GO) test -count=1 -run 'Kill|Partition|Degraded|Rejoin|Heartbeat' ./internal/cluster/...

# Short native-fuzzer runs over every decoder that reads crash debris, user
# files or network bytes (WAL frames, checkpoint JSON, graph text formats,
# ingest step frames vs encoding/json) plus the
# kernel-equivalence properties (packed dominance, qindex candidate
# soundness, the crossing walk's drop/rise directions vs brute-force
# dominance, NPV recount vs forest patching, the capped seal vs capped
# forest vectors under moving caps, undo-logged change sets vs Apply on a
# clone, Skyline's flip-driven witness memo vs the NL oracle, the appended
# pair-list and ingest bodies vs encoding/json) and the engine harness,
# FuzzEngineMatchesReference: durable engines over every production filter,
# crashed, cut and restarted, against one naive reference. The recount,
# capped-seal, Skyline and engine fuzzers share one schedule decoder,
# internal/fuzzsched, whose work budget bounds each input's cost. An engine
# harness run costs tens of milliseconds, and a recount, capped-seal or
# Skyline run up to tens on a dense start graph, so the minimization of
# these four is capped at 2s: the default 60s stopped the exec count of
# 60s runs after 12-18s, and one minimization took 33s. The default budget
# keeps it pre-commit-friendly; override FUZZTIME for a real campaign.
fuzzsmoke:
	$(GO) test -fuzz=FuzzReadRecord -fuzztime=$(FUZZTIME) ./internal/wal/
	$(GO) test -fuzz=FuzzDecodeSnapshot -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -fuzz=FuzzDecodeGraph -fuzztime=$(FUZZTIME) ./internal/graph/
	$(GO) test -fuzz=FuzzApplyUndoable -fuzztime=$(FUZZTIME) ./internal/graph/
	$(GO) test -fuzz=FuzzPackedDominates -fuzztime=$(FUZZTIME) ./internal/npv/
	$(GO) test -fuzz=FuzzQindexCandidates -fuzztime=$(FUZZTIME) ./internal/qindex/
	$(GO) test -fuzz=FuzzCrossDirections -fuzztime=$(FUZZTIME) ./internal/qindex/
	$(GO) test -fuzz=FuzzRecountMatchesForest -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/npv/
	$(GO) test -fuzz=FuzzCappedSeal -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/npv/
	$(GO) test -fuzz=FuzzSkylineMatchesNL -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/join/
	$(GO) test -fuzz=FuzzEngineMatchesReference -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/core/
	$(GO) test -fuzz=FuzzAppendPairs -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -fuzz=FuzzIngestDecodeStep -fuzztime=$(FUZZTIME) ./internal/server/

# Sustained-throughput drill against a live serve socket (see
# scripts/loadtest.sh): open-loop sustain + overload phases, asserting the
# admission control sheds under overload. Knobs via LOADTEST_* env.
loadtest:
	sh scripts/loadtest.sh
