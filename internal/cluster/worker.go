package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/server"
	"nntstream/internal/wal"
)

// WorkerOptions configures a worker runtime.
type WorkerOptions struct {
	// Factory builds the filter for each group engine (must be the same
	// across the whole cluster, or replicas would diverge).
	Factory core.FilterFactory
	// EvalWorkers bounds each group engine's evaluation pool, like
	// core.DurableOptions.Workers.
	EvalWorkers int
	// Fsync/FsyncInterval/CheckpointInterval are the per-group WAL knobs,
	// as in core.DurableOptions: an idle group engine fsyncs and
	// checkpoints nothing.
	Fsync              wal.SyncPolicy
	FsyncInterval      time.Duration
	CheckpointInterval time.Duration
	// Transport carries replication traffic to peer workers
	// (&HTTPTransport{} when nil). It must not retry on the ship path: ship
	// runs under the engine's commit lock and every delivery is bounded by
	// ShipTimeout, so a retrying transport only burns that budget re-sending
	// to a replica the next sync round will repair anyway.
	Transport Transport
	// ShipTimeout bounds each in-band record delivery to one replica
	// (default DefaultShipTimeout). Ship runs under the primary engine's
	// commit lock, so this is a direct bound on how long a freshly failed
	// replica can stall a commit before it is marked lagging.
	ShipTimeout time.Duration
	// Metrics receives replication observations (a detached set when nil).
	Metrics *Metrics
	// WALMetrics is forwarded to each group engine (may be nil).
	WALMetrics *wal.Metrics
}

// Worker hosts the group engines one process is responsible for. Roles are
// pushed by the coordinator: a primary serves the group's data plane and
// ships every committed WAL record to its replicas; a replica only accepts
// shipped records (and stale reads). Engines are opened lazily on first role
// assignment and recover from their own WAL, so a restarted worker rejoins
// with its pre-crash state intact.
type Worker struct {
	id        string
	dir       string
	opts      WorkerOptions
	transport Transport
	metrics   *Metrics

	mu     sync.Mutex
	groups map[int]*workerGroup
	closed bool
}

// appliedFP remembers the payload fingerprint of the most recently applied
// broadcast of one kind, keyed by its idempotency slot. The coordinator's
// counters advance only on full-broadcast success, so a group can be at most
// one slot ahead of the key a retry carries — remembering the latest apply is
// enough to tell a genuine retry from a diverging write.
type appliedFP struct {
	slot int
	fp   string
	ok   bool
}

// conflicts reports whether a retried broadcast at slot carries a payload
// other than the one applied there. Unknown fingerprints (either side) give
// the retry the benefit of the doubt — fingerprints are in-memory, so a
// promoted or restarted worker cannot verify and keeps the pre-fingerprint
// idempotent behavior.
func (a appliedFP) conflicts(slot int, fp string) bool {
	return a.ok && a.slot == slot && a.fp != "" && fp != "" && a.fp != fp
}

// workerGroup is one group replica hosted by this worker. Its mutex guards
// only the role/replica bookkeeping and the engine pointer — it is never
// held across an engine call or an RPC, which keeps it deadlock-free against
// the engine's own lock (the ship path runs under the engine lock and takes
// this one briefly).
type workerGroup struct {
	id int
	w  *Worker

	mu       sync.Mutex
	engine   *core.DurableEngine
	role     string
	replicas []string
	acked    map[string]uint64 // per-replica last acknowledged LSN
	lagging  map[string]bool   // replicas awaiting a sync round

	// Last applied broadcast fingerprints, one per idempotency-key kind.
	lastQuery  appliedFP
	lastStream appliedFP
	lastStep   appliedFP
}

// noteApplied records the fingerprint a broadcast was applied with.
func (g *workerGroup) noteApplied(kind *appliedFP, slot int, fp string) {
	g.mu.Lock()
	*kind = appliedFP{slot: slot, fp: fp, ok: true}
	g.mu.Unlock()
}

// retryConflicts checks a retried broadcast's fingerprint against the record
// of what was applied at its slot.
func (g *workerGroup) retryConflicts(kind *appliedFP, slot int, fp string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return kind.conflicts(slot, fp)
}

// NewWorker creates a worker storing group data under dir/group-<g>.
func NewWorker(id, dir string, opts WorkerOptions) *Worker {
	if opts.Transport == nil {
		opts.Transport = &HTTPTransport{}
	}
	if opts.Metrics == nil {
		opts.Metrics = NewMetrics(newDetachedRegistry())
	}
	return &Worker{
		id:        id,
		dir:       dir,
		opts:      opts,
		transport: opts.Transport,
		metrics:   opts.Metrics,
		groups:    make(map[int]*workerGroup),
	}
}

// ID returns the worker's identity.
func (w *Worker) ID() string { return w.id }

// Close shuts every group engine down cleanly (final checkpoint included).
func (w *Worker) Close() error {
	w.mu.Lock()
	w.closed = true
	groups := make([]*workerGroup, 0, len(w.groups))
	for _, g := range w.groups {
		groups = append(groups, g)
	}
	w.mu.Unlock()
	sort.Slice(groups, func(i, j int) bool { return groups[i].id < groups[j].id })
	var firstErr error
	for _, g := range groups {
		if e := g.eng(); e != nil {
			if err := e.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// Crash abandons every engine without flushing — the harness's hard kill.
func (w *Worker) Crash() error {
	w.mu.Lock()
	w.closed = true
	groups := make([]*workerGroup, 0, len(w.groups))
	for _, g := range w.groups {
		groups = append(groups, g)
	}
	w.mu.Unlock()
	sort.Slice(groups, func(i, j int) bool { return groups[i].id < groups[j].id })
	var firstErr error
	for _, g := range groups {
		if e := g.eng(); e != nil {
			if err := e.Crash(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// lookupGroup finds or registers the group entry under the worker lock.
func (w *Worker) lookupGroup(id int, create bool) (*workerGroup, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, fmt.Errorf("cluster: worker %s is closed", w.id)
	}
	g := w.groups[id]
	if g == nil {
		if !create {
			return nil, fmt.Errorf("cluster: worker %s has no group %d", w.id, id)
		}
		g = &workerGroup{
			id:      id,
			w:       w,
			role:    RoleReplica,
			acked:   make(map[string]uint64),
			lagging: make(map[string]bool),
		}
		w.groups[id] = g
	}
	return g, nil
}

// group returns the group state, creating it (and opening its engine) when
// create is set.
func (w *Worker) group(id int, create bool) (*workerGroup, error) {
	g, err := w.lookupGroup(id, create)
	if err != nil {
		return nil, err
	}

	g.mu.Lock()
	needOpen := g.engine == nil
	g.mu.Unlock()
	if needOpen {
		eng, err := w.openEngine(g)
		if err != nil {
			return nil, err
		}
		g.mu.Lock()
		if g.engine == nil {
			g.engine = eng
			eng = nil
		}
		g.mu.Unlock()
		if eng != nil { // lost the race; discard the extra engine
			eng.Close()
		}
	}
	return g, nil
}

func (w *Worker) openEngine(g *workerGroup) (*core.DurableEngine, error) {
	return core.OpenDurableEngine(
		filepath.Join(w.dir, fmt.Sprintf("group-%d", g.id)),
		w.opts.Factory,
		core.DurableOptions{
			Workers:            w.opts.EvalWorkers,
			Fsync:              w.opts.Fsync,
			FsyncInterval:      w.opts.FsyncInterval,
			CheckpointInterval: w.opts.CheckpointInterval,
			Metrics:            w.opts.WALMetrics,
			OnCommit:           func(r wal.Record) { g.ship(r) },
		},
	)
}

// eng returns the group's engine (nil while a snapshot install is swapping
// it).
func (g *workerGroup) eng() *core.DurableEngine {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.engine
}

// DefaultShipTimeout bounds one in-band record delivery to one replica —
// deliberately shorter than DefaultRPCTimeout, because the ship path runs
// under the primary engine's commit lock and a sync round repairs whatever a
// timed-out delivery missed.
const DefaultShipTimeout = time.Second

// ship forwards one committed record to every healthy replica. It runs
// under the primary engine's write lock (OnCommit), which is what serializes
// shipped records into the same order on every replica. Every delivery runs
// under its own ShipTimeout deadline, and replicas that fail or report a gap
// are marked lagging and skipped until a sync round repairs them — the
// primary never blocks on a broken replica more than ShipTimeout per commit,
// even through a retrying transport (the deadline caps the whole attempt
// chain).
func (g *workerGroup) ship(r wal.Record) {
	targets := g.shipTargets()
	if len(targets) == 0 {
		return
	}
	enc, err := encodeRecords([]wal.Record{r})
	if err != nil {
		// An unencodable record cannot reach any replica; they will all need
		// a catch-up. (Unreachable in practice: the record was just encoded
		// into the local WAL.)
		g.mu.Lock()
		for _, a := range targets {
			g.lagging[a] = true
		}
		g.mu.Unlock()
		return
	}
	timeout := g.w.opts.ShipTimeout
	if timeout <= 0 {
		timeout = DefaultShipTimeout
	}
	for _, addr := range targets {
		var resp WireReplicateResponse
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		_, err := g.w.transport.Do(ctx, addr, http.MethodPost,
			fmt.Sprintf("/cluster/groups/%d/replicate", g.id), WireReplicate{Records: enc}, &resp)
		cancel()
		g.mu.Lock()
		if err != nil || resp.Gap {
			g.lagging[addr] = true
			g.w.metrics.ShipFailures.Inc()
		} else {
			g.acked[addr] = resp.Applied
			g.w.metrics.RecordsShipped.Inc()
		}
		g.mu.Unlock()
	}
}

// shipTargets snapshots the healthy replica list (nil unless primary).
func (g *workerGroup) shipTargets() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.role != RolePrimary || len(g.replicas) == 0 {
		return nil
	}
	targets := make([]string, 0, len(g.replicas))
	for _, a := range g.replicas {
		if !g.lagging[a] {
			targets = append(targets, a)
		}
	}
	return targets
}

// replicaList snapshots the full replica list (primary role only).
func (g *workerGroup) replicaList() ([]string, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.role != RolePrimary {
		return nil, false
	}
	return append([]string(nil), g.replicas...), true
}

// syncReplicas is the anti-entropy pass: probe each replica's watermark and
// replay it the records it is missing, falling back to a snapshot transfer
// when the local log was compacted past its position.
func (g *workerGroup) syncReplicas(ctx context.Context) error {
	replicas, ok := g.replicaList()
	if !ok {
		return &StatusError{Code: http.StatusConflict, Msg: "not the primary"}
	}
	var firstErr error
	for _, addr := range replicas {
		if err := g.syncOne(ctx, addr); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (g *workerGroup) syncOne(ctx context.Context, addr string) error {
	eng := g.eng()
	if eng == nil {
		return fmt.Errorf("cluster: group %d engine unavailable", g.id)
	}
	probe := func() (uint64, error) {
		var resp WireReplicateResponse
		_, err := g.w.transport.Do(ctx, addr, http.MethodPost,
			fmt.Sprintf("/cluster/groups/%d/replicate", g.id), WireReplicate{}, &resp)
		return resp.Applied, err
	}
	applied, err := probe()
	if err != nil {
		return err
	}
	target := eng.AppliedLSN()
	if applied < target {
		recs, err := eng.RecordsSince(applied)
		if errors.Is(err, wal.ErrCompacted) {
			// The replica's position predates the log: re-bootstrap it.
			snap, serr := eng.SnapshotBytes()
			if serr != nil {
				return serr
			}
			if _, serr := g.w.transport.Do(ctx, addr, http.MethodPost,
				fmt.Sprintf("/cluster/groups/%d/snapshot", g.id), WireSnapshot{Data: snap}, nil); serr != nil {
				return serr
			}
			g.w.metrics.SnapshotInstalls.Inc()
			if applied, err = probe(); err != nil {
				return err
			}
			if recs, err = eng.RecordsSince(applied); errors.Is(err, wal.ErrCompacted) {
				// A checkpoint raced the transfer; the next sync round
				// restarts from the fresher snapshot.
				return fmt.Errorf("cluster: group %d compacted during sync of %s", g.id, addr)
			}
		}
		if err != nil {
			return err
		}
		if len(recs) > 0 {
			enc, err := encodeRecords(recs)
			if err != nil {
				return err
			}
			var resp WireReplicateResponse
			if _, err := g.w.transport.Do(ctx, addr, http.MethodPost,
				fmt.Sprintf("/cluster/groups/%d/replicate", g.id), WireReplicate{Records: enc}, &resp); err != nil {
				return err
			}
			if resp.Gap {
				return fmt.Errorf("cluster: group %d replica %s still gapped after catch-up", g.id, addr)
			}
			g.w.metrics.CatchupRecords.Add(int64(len(recs)))
			applied = resp.Applied
		}
	}
	g.mu.Lock()
	g.acked[addr] = applied
	if applied >= target {
		delete(g.lagging, addr)
	}
	g.mu.Unlock()
	return nil
}

// Handler returns the worker's HTTP surface: the /cluster control and
// replication plane plus the per-group data plane the coordinator forwards
// to.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /cluster/status", w.handleStatus)
	mux.HandleFunc("POST /cluster/groups/{g}/role", w.handleRole)
	mux.HandleFunc("POST /cluster/groups/{g}/replicate", w.handleReplicate)
	mux.HandleFunc("GET /cluster/groups/{g}/records", w.handleRecords)
	mux.HandleFunc("GET /cluster/groups/{g}/snapshot", w.handleSnapshotGet)
	mux.HandleFunc("POST /cluster/groups/{g}/snapshot", w.handleSnapshotInstall)
	mux.HandleFunc("POST /cluster/groups/{g}/sync", w.handleSync)
	mux.HandleFunc("POST /cluster/groups/{g}/queries", w.handleAddQuery)
	mux.HandleFunc("DELETE /cluster/groups/{g}/queries/{id}", w.handleRemoveQuery)
	mux.HandleFunc("POST /cluster/groups/{g}/streams", w.handleAddStream)
	mux.HandleFunc("POST /cluster/groups/{g}/step", w.handleStep)
	mux.HandleFunc("GET /cluster/groups/{g}/candidates", w.handleCandidates)
	mux.HandleFunc("GET /cluster/groups/{g}/stats", w.handleStats)
	mux.HandleFunc("GET /v1/healthz", func(rw http.ResponseWriter, _ *http.Request) {
		server.WriteJSON(rw, http.StatusOK, map[string]string{"status": "ok", "worker": w.id})
	})
	return mux
}

// pathGroup parses the {g} path segment and resolves the group. Handlers
// that only make sense on an assigned group pass create=false and let a
// missing group 404.
func (w *Worker) pathGroup(rw http.ResponseWriter, r *http.Request, create bool) (*workerGroup, bool) {
	gid, err := strconv.Atoi(r.PathValue("g"))
	if err != nil || gid < 0 || gid >= MaxGroups {
		server.HTTPError(rw, http.StatusBadRequest, "bad group %q", r.PathValue("g"))
		return nil, false
	}
	g, err := w.group(gid, create)
	if err != nil {
		status := http.StatusNotFound
		if create {
			status = http.StatusInternalServerError
		}
		server.HTTPError(rw, status, "%v", err)
		return nil, false
	}
	return g, true
}

// groupEngine fetches the group's engine or answers 503 (an install is
// swapping it — momentary, so retryable).
func groupEngine(rw http.ResponseWriter, g *workerGroup) (*core.DurableEngine, bool) {
	eng := g.eng()
	if eng == nil {
		server.HTTPError(rw, http.StatusServiceUnavailable, "group %d engine is being replaced", g.id)
		return nil, false
	}
	return eng, true
}

// refuseFailed answers 500 when the group's engine refuses writes. A retry
// shortcut checks it after reading the engine's state: a commit whose closing
// fsync failed may have left its write applied in memory, and acking the
// retry would confirm a write that is on no disk and no replica.
func refuseFailed(rw http.ResponseWriter, g *workerGroup, eng *core.DurableEngine) bool {
	err := eng.Err()
	if err != nil {
		server.HTTPError(rw, http.StatusInternalServerError, "group %d refuses writes: %v", g.id, err)
	}
	return err != nil
}

func (w *Worker) handleStatus(rw http.ResponseWriter, _ *http.Request) {
	w.mu.Lock()
	ids := make([]int, 0, len(w.groups))
	for id := range w.groups {
		ids = append(ids, id)
	}
	w.mu.Unlock()
	sort.Ints(ids)
	st := WireStatus{ID: w.id}
	for _, id := range ids {
		g, err := w.group(id, false)
		if err != nil {
			continue
		}
		eng := g.eng()
		if eng == nil {
			continue
		}
		g.mu.Lock()
		role := g.role
		g.mu.Unlock()
		stats := eng.Stats()
		nextQ, nextS := eng.NextIDs()
		st.Groups = append(st.Groups, WireGroupStatus{
			Group:      id,
			Role:       role,
			AppliedLSN: eng.AppliedLSN(),
			Queries:    eng.QueryCount(),
			Streams:    eng.StreamCount(),
			NextQuery:  int(nextQ),
			NextStream: int(nextS),
			Timestamps: stats.Timestamps,
		})
	}
	server.WriteJSON(rw, http.StatusOK, st)
}

func (w *Worker) handleRole(rw http.ResponseWriter, r *http.Request) {
	var req WireRole
	if !decodeJSON(rw, r, &req) {
		return
	}
	if req.Role != RolePrimary && req.Role != RoleReplica {
		server.HTTPError(rw, http.StatusBadRequest, "unknown role %q", req.Role)
		return
	}
	g, ok := w.pathGroup(rw, r, true)
	if !ok {
		return
	}
	g.mu.Lock()
	g.role = req.Role
	g.replicas = append([]string(nil), req.Replicas...)
	keep := make(map[string]bool, len(req.Replicas))
	for _, a := range req.Replicas {
		keep[a] = true
	}
	for a := range g.acked {
		if !keep[a] {
			delete(g.acked, a)
		}
	}
	for a := range g.lagging {
		if !keep[a] {
			delete(g.lagging, a)
		}
	}
	// A freshly assigned replica set has unknown watermarks: mark every new
	// replica lagging so the first sync round probes it before in-band
	// shipping resumes (shipping to a replica of unknown position would
	// just bounce off a gap).
	if req.Role == RolePrimary {
		for _, a := range req.Replicas {
			if _, known := g.acked[a]; !known {
				g.lagging[a] = true
			}
		}
	}
	g.mu.Unlock()
	server.WriteJSON(rw, http.StatusOK, map[string]string{"status": "ok"})
}

func (w *Worker) handleReplicate(rw http.ResponseWriter, r *http.Request) {
	g, ok := w.pathGroup(rw, r, true)
	if !ok {
		return
	}
	g.mu.Lock()
	role := g.role
	g.mu.Unlock()
	if role != RoleReplica {
		// A primary refusing shipped records is the split-brain guard: two
		// primaries never silently merge histories.
		server.HTTPError(rw, http.StatusConflict, "group %d on %s is %s, not a replica", g.id, w.id, role)
		return
	}
	var req WireReplicate
	if !decodeJSON(rw, r, &req) {
		return
	}
	eng, ok := groupEngine(rw, g)
	if !ok {
		return
	}
	recs, err := decodeRecords(req.Records)
	if err != nil {
		server.HTTPError(rw, http.StatusBadRequest, "%v", err)
		return
	}
	resp := WireReplicateResponse{}
	for _, rec := range recs {
		if err := eng.ApplyRecord(rec); err != nil {
			if errors.Is(err, core.ErrReplicaGap) {
				resp.Gap = true
				break
			}
			server.HTTPError(rw, http.StatusInternalServerError, "applying record %d: %v", rec.LSN, err)
			return
		}
	}
	resp.Applied = eng.AppliedLSN()
	rw.Header().Set(HeaderLSN, strconv.FormatUint(resp.Applied, 10))
	server.WriteJSON(rw, http.StatusOK, resp)
}

func (w *Worker) handleRecords(rw http.ResponseWriter, r *http.Request) {
	g, ok := w.pathGroup(rw, r, false)
	if !ok {
		return
	}
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		server.HTTPError(rw, http.StatusBadRequest, "bad from %q", r.URL.Query().Get("from"))
		return
	}
	eng, ok := groupEngine(rw, g)
	if !ok {
		return
	}
	recs, err := eng.RecordsSince(from)
	if errors.Is(err, wal.ErrCompacted) {
		server.WriteJSON(rw, http.StatusOK, WireRecords{Compacted: true})
		return
	}
	if err != nil {
		server.HTTPError(rw, http.StatusInternalServerError, "%v", err)
		return
	}
	enc, err := encodeRecords(recs)
	if err != nil {
		server.HTTPError(rw, http.StatusInternalServerError, "%v", err)
		return
	}
	server.WriteJSON(rw, http.StatusOK, WireRecords{Records: enc})
}

func (w *Worker) handleSnapshotGet(rw http.ResponseWriter, r *http.Request) {
	g, ok := w.pathGroup(rw, r, false)
	if !ok {
		return
	}
	eng, ok := groupEngine(rw, g)
	if !ok {
		return
	}
	data, err := eng.SnapshotBytes()
	if err != nil {
		server.HTTPError(rw, http.StatusInternalServerError, "%v", err)
		return
	}
	server.WriteJSON(rw, http.StatusOK, WireSnapshot{Data: data})
}

func (w *Worker) handleSnapshotInstall(rw http.ResponseWriter, r *http.Request) {
	var req WireSnapshot
	if !decodeJSON(rw, r, &req) {
		return
	}
	g, ok := w.pathGroup(rw, r, true)
	if !ok {
		return
	}
	// Demote first so no ship runs concurrently, then swap the engine
	// outside the group lock (Crash must not deadlock against an in-flight
	// commit's ship, which briefly takes the group lock).
	g.mu.Lock()
	g.role = RoleReplica
	old := g.engine
	g.engine = nil
	g.mu.Unlock()
	if old != nil {
		if err := old.Crash(); err != nil {
			server.HTTPError(rw, http.StatusInternalServerError, "retiring old engine: %v", err)
			return
		}
	}
	dir := filepath.Join(w.dir, fmt.Sprintf("group-%d", g.id))
	if err := core.InstallSnapshot(dir, req.Data); err != nil {
		server.HTTPError(rw, http.StatusInternalServerError, "%v", err)
		return
	}
	eng, err := w.openEngine(g)
	if err != nil {
		server.HTTPError(rw, http.StatusInternalServerError, "reopening after install: %v", err)
		return
	}
	g.mu.Lock()
	g.engine = eng
	g.mu.Unlock()
	rw.Header().Set(HeaderLSN, strconv.FormatUint(eng.AppliedLSN(), 10))
	server.WriteJSON(rw, http.StatusOK, map[string]string{"status": "installed"})
}

func (w *Worker) handleSync(rw http.ResponseWriter, r *http.Request) {
	g, ok := w.pathGroup(rw, r, false)
	if !ok {
		return
	}
	if err := g.syncReplicas(r.Context()); err != nil {
		var se *StatusError
		if errors.As(err, &se) {
			server.HTTPError(rw, se.Code, "%s", se.Msg)
			return
		}
		server.HTTPError(rw, http.StatusBadGateway, "%v", err)
		return
	}
	server.WriteJSON(rw, http.StatusOK, map[string]string{"status": "ok"})
}

// requirePrimary rejects data-plane writes on non-primaries — the backstop
// under a coordinator with a stale placement view.
func requirePrimary(rw http.ResponseWriter, w *Worker, g *workerGroup) bool {
	g.mu.Lock()
	role := g.role
	g.mu.Unlock()
	if role != RolePrimary {
		server.HTTPError(rw, http.StatusConflict, "group %d on %s is not the primary", g.id, w.id)
		return false
	}
	return true
}

// writeDataJSON answers a data-plane request, stamping the group's applied
// LSN so the coordinator can advance its acknowledged watermark.
func writeDataJSON(rw http.ResponseWriter, eng *core.DurableEngine, status int, v any) {
	rw.Header().Set(HeaderLSN, strconv.FormatUint(eng.AppliedLSN(), 10))
	server.WriteJSON(rw, status, v)
}

// writeDataPairs answers a data-plane read or step with its pairs, stamped
// like writeDataJSON.
func writeDataPairs(rw http.ResponseWriter, eng *core.DurableEngine, pairs []core.Pair) {
	rw.Header().Set(HeaderLSN, strconv.FormatUint(eng.AppliedLSN(), 10))
	server.WritePairs(rw, pairs)
}

func (w *Worker) handleAddQuery(rw http.ResponseWriter, r *http.Request) {
	g, ok := w.pathGroup(rw, r, false)
	if !ok {
		return
	}
	if !requirePrimary(rw, w, g) {
		return
	}
	var req WireAddQuery
	if !decodeJSON(rw, r, &req) {
		return
	}
	qg, err := req.Graph.ToGraph()
	if err != nil {
		server.HTTPError(rw, http.StatusBadRequest, "bad graph: %v", err)
		return
	}
	eng, ok := groupEngine(rw, g)
	if !ok {
		return
	}
	nextQ, _ := eng.NextIDs()
	switch {
	case int(nextQ) > req.Expect:
		// A retried broadcast this group already applied: answer as before —
		// unless the payload differs from what was applied at that ID, which
		// is a diverging write the coordinator must hear about, not an ack.
		if refuseFailed(rw, g, eng) {
			return
		}
		if g.retryConflicts(&g.lastQuery, req.Expect, req.Fingerprint) {
			server.HTTPError(rw, http.StatusConflict,
				"group %d already applied a different payload for query id %d", g.id, req.Expect)
			return
		}
		writeDataJSON(rw, eng, http.StatusOK, WireID{ID: req.Expect})
	case int(nextQ) < req.Expect:
		server.HTTPError(rw, http.StatusConflict,
			"group %d expects query id %d, coordinator sent %d", g.id, nextQ, req.Expect)
	default:
		id, err := eng.AddQuery(qg)
		if err != nil {
			server.HTTPError(rw, server.StatusFor(err), "%v", err)
			return
		}
		g.noteApplied(&g.lastQuery, int(id), req.Fingerprint)
		writeDataJSON(rw, eng, http.StatusOK, WireID{ID: int(id)})
	}
}

func (w *Worker) handleRemoveQuery(rw http.ResponseWriter, r *http.Request) {
	g, ok := w.pathGroup(rw, r, false)
	if !ok {
		return
	}
	if !requirePrimary(rw, w, g) {
		return
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		server.HTTPError(rw, http.StatusBadRequest, "bad query id %q", r.PathValue("id"))
		return
	}
	eng, ok := groupEngine(rw, g)
	if !ok {
		return
	}
	removed := true
	if err := eng.RemoveQuery(core.QueryID(id)); err != nil {
		if !errors.Is(err, core.ErrUnknownQuery) {
			server.HTTPError(rw, server.StatusFor(err), "%v", err)
			return
		}
		// Unknown here but possibly removed by an earlier attempt of the
		// same broadcast: report idempotently and let the coordinator decide.
		removed = false
	}
	writeDataJSON(rw, eng, http.StatusOK, WireRemoved{Removed: removed})
}

func (w *Worker) handleAddStream(rw http.ResponseWriter, r *http.Request) {
	g, ok := w.pathGroup(rw, r, false)
	if !ok {
		return
	}
	if !requirePrimary(rw, w, g) {
		return
	}
	var req WireAddStream
	if !decodeJSON(rw, r, &req) {
		return
	}
	sg, err := req.Graph.ToGraph()
	if err != nil {
		server.HTTPError(rw, http.StatusBadRequest, "bad graph: %v", err)
		return
	}
	eng, ok := groupEngine(rw, g)
	if !ok {
		return
	}
	_, nextS := eng.NextIDs()
	switch {
	case int(nextS) > req.Expect:
		if refuseFailed(rw, g, eng) {
			return
		}
		if g.retryConflicts(&g.lastStream, req.Expect, req.Fingerprint) {
			server.HTTPError(rw, http.StatusConflict,
				"group %d already applied a different payload for stream id %d", g.id, req.Expect)
			return
		}
		writeDataJSON(rw, eng, http.StatusOK, WireID{ID: req.Expect})
	case int(nextS) < req.Expect:
		server.HTTPError(rw, http.StatusConflict,
			"group %d expects stream id %d, coordinator sent %d", g.id, nextS, req.Expect)
	default:
		id, err := eng.AddStream(sg)
		if err != nil {
			server.HTTPError(rw, server.StatusFor(err), "%v", err)
			return
		}
		g.noteApplied(&g.lastStream, int(id), req.Fingerprint)
		writeDataJSON(rw, eng, http.StatusOK, WireID{ID: int(id)})
	}
}

func (w *Worker) handleStep(rw http.ResponseWriter, r *http.Request) {
	g, ok := w.pathGroup(rw, r, false)
	if !ok {
		return
	}
	if !requirePrimary(rw, w, g) {
		return
	}
	var req WireStep
	if !decodeJSON(rw, r, &req) {
		return
	}
	eng, ok := groupEngine(rw, g)
	if !ok {
		return
	}
	ts := eng.Stats().Timestamps
	if ts > req.Seq {
		// Already stepped by an earlier attempt of this broadcast; the
		// candidate set is the post-step state either way. A different
		// payload under the same sequence number is not a retry, though —
		// that change set was never applied anywhere and must not be acked.
		if refuseFailed(rw, g, eng) {
			return
		}
		if g.retryConflicts(&g.lastStep, req.Seq, req.Fingerprint) {
			server.HTTPError(rw, http.StatusConflict,
				"group %d already applied a different change set at step %d", g.id, req.Seq)
			return
		}
		writeDataPairs(rw, eng, eng.Candidates())
		return
	}
	if ts < req.Seq {
		server.HTTPError(rw, http.StatusConflict, "group %d is at step %d, coordinator sent %d", g.id, ts, req.Seq)
		return
	}
	changes := make(map[core.StreamID]graph.ChangeSet, len(req.Changes))
	for key, ops := range req.Changes {
		sid, err := strconv.Atoi(key)
		if err != nil {
			server.HTTPError(rw, http.StatusBadRequest, "bad stream id %q", key)
			return
		}
		var cs graph.ChangeSet
		for i, wop := range ops {
			op, err := wop.ToChangeOp()
			if err != nil {
				server.HTTPError(rw, http.StatusBadRequest, "stream %s op %d: %v", key, i, err)
				return
			}
			cs = append(cs, op)
		}
		changes[core.StreamID(sid)] = cs
	}
	pairs, err := eng.StepAll(changes)
	if err != nil {
		server.HTTPError(rw, server.StatusFor(err), "%v", err)
		return
	}
	g.noteApplied(&g.lastStep, req.Seq, req.Fingerprint)
	writeDataPairs(rw, eng, pairs)
}

func (w *Worker) handleCandidates(rw http.ResponseWriter, r *http.Request) {
	g, ok := w.pathGroup(rw, r, false)
	if !ok {
		return
	}
	eng, ok := groupEngine(rw, g)
	if !ok {
		return
	}
	// Reads are served in any role: the coordinator reads replicas directly
	// when a group is degraded (and labels the response stale itself).
	writeDataPairs(rw, eng, eng.Candidates())
}

func (w *Worker) handleStats(rw http.ResponseWriter, r *http.Request) {
	g, ok := w.pathGroup(rw, r, false)
	if !ok {
		return
	}
	eng, ok := groupEngine(rw, g)
	if !ok {
		return
	}
	st := eng.Stats()
	writeDataJSON(rw, eng, http.StatusOK, WireStats{
		Timestamps:     st.Timestamps,
		AvgFilterMs:    float64(st.AvgTimePerTimestamp()) / float64(time.Millisecond),
		CandidateRatio: st.CandidateRatio(),
	})
}

// maxBodyBytes caps cluster RPC bodies; snapshots dominate, and even those
// stay far below this for the workloads the engine targets.
const maxBodyBytes = 64 << 20

func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	defer body.Close()
	if err := server.DecodeJSON(body, dst); err != nil {
		server.HTTPError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return false
	}
	return true
}
