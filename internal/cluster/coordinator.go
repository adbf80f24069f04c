package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"nntstream/internal/core"
	"nntstream/internal/obs"
	"nntstream/internal/server"
)

// CoordinatorOptions tunes failure detection and client-facing behavior.
type CoordinatorOptions struct {
	// Transport carries coordinator→worker RPCs (&HTTPTransport{} when nil).
	// Wrap it in a RetryTransport for production use; tests swap in fault
	// injectors.
	Transport Transport
	// MissThreshold is how many consecutive failed heartbeats declare a
	// worker dead (default 3).
	MissThreshold int
	// HeartbeatInterval drives the background poll loop; zero disables it so
	// tests call PollOnce deterministically.
	HeartbeatInterval time.Duration
	// RetryAfter is the Retry-After hint on degraded-mode write rejections
	// (default 1s, rounded up to whole seconds).
	RetryAfter time.Duration
	// Registry receives the cluster metrics (a detached registry when nil).
	Registry *obs.Registry
}

// groupPlacement is the coordinator's live view of one group: who currently
// leads it (which diverges from ring placement after failovers), the highest
// LSN any client write was acknowledged at, and whether the group has fallen
// back to stale reads.
type groupPlacement struct {
	primary  string
	replicas []string // worker IDs, current primary excluded
	acked    uint64
	degraded bool
}

// workerState is the failure detector's per-worker record.
type workerState struct {
	spec   WorkerSpec
	alive  bool
	misses int
	status WireStatus
}

// Coordinator fronts the cluster with the single-node /v1 API: it broadcasts
// queries and steps to every group, round-robins streams, merges candidate
// sets, and runs the failure detector that promotes replicas when primaries
// die. One mutex serializes the control plane and the data plane — the
// coordinator is a thin router, and a totally ordered write stream is exactly
// what makes group engines bit-identical to a single-node run.
type Coordinator struct {
	cfg       Config
	opts      CoordinatorOptions
	transport Transport
	metrics   *Metrics
	registry  *obs.Registry

	mu      sync.Mutex
	groups  []*groupPlacement
	workers map[string]*workerState
	queries int // next query ID (== queries ever added)
	streams int // next global stream ID
	steps   int // global timestamps advanced

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// NewCoordinator validates cfg and builds the coordinator (no RPCs yet; call
// Start).
func NewCoordinator(cfg Config, opts CoordinatorOptions) (*Coordinator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.Transport == nil {
		opts.Transport = &HTTPTransport{}
	}
	if opts.MissThreshold <= 0 {
		opts.MissThreshold = 3
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = time.Second
	}
	registry := opts.Registry
	if registry == nil {
		registry = newDetachedRegistry()
	}
	c := &Coordinator{
		cfg:       cfg,
		opts:      opts,
		transport: opts.Transport,
		metrics:   NewMetrics(registry),
		registry:  registry,
		workers:   make(map[string]*workerState),
		stop:      make(chan struct{}),
	}
	for _, w := range cfg.Workers {
		c.workers[w.ID] = &workerState{spec: w, alive: true}
	}
	for g := 0; g < cfg.Groups; g++ {
		placed := cfg.Placement(g)
		c.groups = append(c.groups, &groupPlacement{
			primary:  placed[0],
			replicas: append([]string(nil), placed[1:]...),
		})
	}
	c.metrics.WorkersAlive.Set(float64(len(cfg.Workers)))
	return c, nil
}

// Metrics exposes the coordinator's instruments (tests assert on them).
func (c *Coordinator) Metrics() *Metrics { return c.metrics }

// Registry exposes the metrics registry backing /v1/metrics.
func (c *Coordinator) Registry() *obs.Registry { return c.registry }

// Start pushes the initial role assignments to every worker, recovers the
// idempotency counters from worker state, and, when a heartbeat interval is
// configured, launches the failure-detection loop. Start refuses to serve
// (returns an error) until every worker has answered: counters guessed at
// zero against a cluster with existing state would make every broadcast look
// like an already-applied retry, and workers would ack writes without
// applying them.
func (c *Coordinator) Start(ctx context.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for g, gp := range c.groups {
		//lint:ignore blockhold Start is pre-serving: nothing contends for c.mu until it returns, and serving must not begin before roles are pushed
		if err := c.assignRolesLocked(ctx, g, gp); err != nil {
			return err
		}
	}
	// Role assignment opened (and WAL-recovered) every group engine, so the
	// statuses the counters are rebuilt from reflect durable state — a
	// lazily-opened engine polled earlier would report nothing.
	//lint:ignore blockhold Start is pre-serving: counter recovery must finish before any handler can take c.mu
	if err := c.recoverCountersLocked(ctx); err != nil {
		return err
	}
	for g, gp := range c.groups {
		//lint:ignore blockhold Start is pre-serving: replica catch-up runs before any handler can take c.mu
		c.syncGroupLocked(ctx, g, gp)
	}
	if c.opts.HeartbeatInterval > 0 {
		c.wg.Add(1)
		go c.heartbeatLoop()
	}
	return nil
}

// recoverCountersLocked rebuilds the queries/streams/steps counters from
// worker status reports. Per group the highest value any host reports wins
// (replicas trail their primary); across groups the broadcast counters
// (queries, steps) take the minimum, so a broadcast a previous coordinator
// left half-applied can still be completed by a client retry — the groups
// that already applied it answer idempotently, fingerprint-checked. Stream
// placement is round-robin over groups, so the global stream counter is the
// sum of the groups' local allocators.
func (c *Coordinator) recoverCountersLocked(ctx context.Context) error {
	statuses := make(map[string]WireStatus, len(c.workers))
	for id, ws := range c.workers {
		var st WireStatus
		if _, err := c.transport.Do(ctx, ws.spec.Addr, http.MethodGet, "/cluster/status", nil, &st); err != nil {
			return fmt.Errorf("cluster: recovering counters from %s: %w", id, err)
		}
		statuses[id] = st
		ws.status = st
	}
	var queries, steps, streams int
	for g, gp := range c.groups {
		var gq, gs, gt int
		for _, id := range append([]string{gp.primary}, gp.replicas...) {
			for _, grp := range statuses[id].Groups {
				if grp.Group != g {
					continue
				}
				gq = max(gq, grp.NextQuery)
				gs = max(gs, grp.NextStream)
				gt = max(gt, grp.Timestamps)
			}
		}
		if g == 0 || gq < queries {
			queries = gq
		}
		if g == 0 || gt < steps {
			steps = gt
		}
		streams += gs
		// The primary's applied LSN bounds every write a client ever saw
		// acknowledged; folding it in keeps promotion safe from the start.
		if lsn, ok := groupApplied(statuses[gp.primary], g); ok && lsn > gp.acked {
			gp.acked = lsn
		}
	}
	c.queries, c.steps, c.streams = queries, steps, streams
	return nil
}

// Stop terminates the heartbeat loop (idempotent).
func (c *Coordinator) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

func (c *Coordinator) heartbeatLoop() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.opts.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
			c.PollOnce(context.Background())
		}
	}
}

// assignRolesLocked pushes the group's current roles: replicas first (so the
// primary never ships to a worker that still believes it is primary), then
// the primary with its replica address list.
func (c *Coordinator) assignRolesLocked(ctx context.Context, g int, gp *groupPlacement) error {
	replicaAddrs := make([]string, 0, len(gp.replicas))
	for _, id := range gp.replicas {
		if !c.workers[id].alive {
			continue
		}
		addr := c.cfg.Addr(id)
		replicaAddrs = append(replicaAddrs, addr)
		if _, err := c.transport.Do(ctx, addr, http.MethodPost,
			fmt.Sprintf("/cluster/groups/%d/role", g), WireRole{Role: RoleReplica}, nil); err != nil {
			return fmt.Errorf("cluster: assigning replica role for group %d to %s: %w", g, id, err)
		}
	}
	if _, err := c.transport.Do(ctx, c.cfg.Addr(gp.primary), http.MethodPost,
		fmt.Sprintf("/cluster/groups/%d/role", g),
		WireRole{Role: RolePrimary, Replicas: replicaAddrs}, nil); err != nil {
		return fmt.Errorf("cluster: assigning primary role for group %d to %s: %w", g, gp.primary, err)
	}
	return nil
}

// syncGroupLocked asks the group's primary to run an anti-entropy round —
// issued after every role push, because a freshly assigned replica set has
// unknown watermarks and in-band shipping stays paused until a sync probes
// them.
func (c *Coordinator) syncGroupLocked(ctx context.Context, g int, gp *groupPlacement) {
	_, _ = c.transport.Do(ctx, c.cfg.Addr(gp.primary), http.MethodPost,
		fmt.Sprintf("/cluster/groups/%d/sync", g), nil, nil)
}

// PollOnce runs one failure-detection round: heartbeat every worker, fold
// reported watermarks into the acknowledged LSNs, re-integrate returned
// workers, and promote or degrade groups whose primary is dead. It is the
// heartbeat loop's body, exported so tests drive detection deterministically.
//
// Heartbeats run concurrently and outside the coordinator mutex: the
// transport may spend a retry-and-timeout cycle on an unreachable worker,
// and failure detection must never stall the data plane behind that wait.
func (c *Coordinator) PollOnce(ctx context.Context) {
	type probe struct {
		id   string
		addr string
		st   WireStatus
		err  error
	}
	c.mu.Lock()
	probes := make([]probe, 0, len(c.workers))
	for id, ws := range c.workers {
		probes = append(probes, probe{id: id, addr: ws.spec.Addr})
	}
	c.mu.Unlock()
	sort.Slice(probes, func(i, j int) bool { return probes[i].id < probes[j].id })

	var probeWG sync.WaitGroup
	for i := range probes {
		probeWG.Add(1)
		go func(p *probe) {
			defer probeWG.Done()
			_, p.err = c.transport.Do(ctx, p.addr, http.MethodGet, "/cluster/status", nil, &p.st)
		}(&probes[i])
	}
	probeWG.Wait()

	c.mu.Lock()
	defer c.mu.Unlock()

	var revived []string
	alive := 0
	for _, p := range probes {
		ws := c.workers[p.id]
		if p.err != nil {
			ws.misses++
			c.metrics.HeartbeatMisses.Inc()
			if ws.misses >= c.opts.MissThreshold {
				ws.alive = false
			}
		} else {
			if !ws.alive {
				revived = append(revived, p.id)
			}
			ws.alive = true
			ws.misses = 0
			ws.status = p.st
		}
		if ws.alive {
			alive++
		}
	}
	c.metrics.WorkersAlive.Set(float64(alive))

	// A primary's reported applied LSN bounds what any client saw
	// acknowledged, so folding it in only tightens the promotion bar.
	for g, gp := range c.groups {
		if ws := c.workers[gp.primary]; ws.alive && !gp.degraded {
			if lsn, ok := groupApplied(ws.status, g); ok && lsn > gp.acked {
				gp.acked = lsn
			}
		}
	}

	for _, id := range revived {
		//lint:ignore blockhold rejoin must push roles atomically with the placement bookkeeping; the control plane is serialized under c.mu by design
		c.rejoinLocked(ctx, id)
	}

	degraded := 0
	for g, gp := range c.groups {
		if !c.workers[gp.primary].alive || gp.degraded {
			//lint:ignore blockhold failover must promote and push roles atomically with the placement bookkeeping; the control plane is serialized under c.mu by design
			c.failoverLocked(ctx, g, gp)
		}
		if gp.degraded {
			degraded++
		}
	}
	c.metrics.DegradedGroups.Set(float64(degraded))

	// Fleet-wide replication lag: how far each live replica trails its
	// group's acknowledged watermark (in WAL records), summed.
	var lag uint64
	for g, gp := range c.groups {
		for _, id := range gp.replicas {
			ws := c.workers[id]
			if !ws.alive {
				continue
			}
			if lsn, ok := groupApplied(ws.status, g); ok && lsn < gp.acked {
				lag += gp.acked - lsn
			}
		}
	}
	c.metrics.ReplicationLag.Set(float64(lag))
}

// groupApplied extracts a group's applied LSN from a worker status report.
func groupApplied(st WireStatus, g int) (uint64, bool) {
	for _, gs := range st.Groups {
		if gs.Group == g {
			return gs.AppliedLSN, true
		}
	}
	return 0, false
}

// failoverLocked restores a leader for a group whose primary is unreachable
// (or which is already degraded and waiting for one). Promotion is gated on
// the acknowledged watermark: a replica that hasn't applied every
// acknowledged write must not lead, or committed history would be rewritten.
// With no safe candidate the group degrades — stale reads, fast-failing
// writes — until a caught-up replica or the old primary returns.
func (c *Coordinator) failoverLocked(ctx context.Context, g int, gp *groupPlacement) {
	// The old primary coming back is always safe: it holds every
	// acknowledged write by definition.
	if ws := c.workers[gp.primary]; ws.alive {
		if gp.degraded {
			if err := c.assignRolesLocked(ctx, g, gp); err == nil {
				gp.degraded = false
				c.syncGroupLocked(ctx, g, gp)
			}
		}
		return
	}

	best := ""
	var bestLSN uint64
	for _, id := range gp.replicas {
		ws := c.workers[id]
		if !ws.alive {
			continue
		}
		lsn, ok := groupApplied(ws.status, g)
		if !ok || lsn < gp.acked {
			continue
		}
		if best == "" || lsn > bestLSN || (lsn == bestLSN && id < best) {
			best, bestLSN = id, lsn
		}
	}
	if best == "" {
		gp.degraded = true
		return
	}

	// Promote: the dead primary joins the replica list so its eventual
	// return re-integrates it as a follower.
	replicas := []string{gp.primary}
	for _, id := range gp.replicas {
		if id != best {
			replicas = append(replicas, id)
		}
	}
	old := gp.primary
	gp.primary = best
	gp.replicas = replicas
	if err := c.assignRolesLocked(ctx, g, gp); err != nil {
		// Roll back the bookkeeping; the next poll retries.
		gp.primary = old
		gp.replicas = append(gp.replicas[:0], gp.replicas[1:]...)
		gp.replicas = append(gp.replicas, best)
		gp.degraded = true
		return
	}
	gp.degraded = false
	c.metrics.Failovers.Inc()
	c.syncGroupLocked(ctx, g, gp)
}

// rejoinLocked re-integrates a worker that came back from the dead. For every
// group it hosts as a replica it is re-bootstrapped from the current
// primary's snapshot — its WAL may hold records a promotion superseded, and
// wiping to the primary's state is the only way to guarantee convergence.
// Groups it still leads are left alone (failoverLocked handles degraded
// recovery).
func (c *Coordinator) rejoinLocked(ctx context.Context, id string) {
	addr := c.cfg.Addr(id)
	for g, gp := range c.groups {
		if gp.primary == id {
			continue
		}
		hosts := false
		for _, rid := range gp.replicas {
			if rid == id {
				hosts = true
				break
			}
		}
		if !hosts {
			continue
		}
		pws := c.workers[gp.primary]
		if !pws.alive {
			continue
		}
		var snap WireSnapshot
		if _, err := c.transport.Do(ctx, pws.spec.Addr, http.MethodGet,
			fmt.Sprintf("/cluster/groups/%d/snapshot", g), nil, &snap); err != nil {
			continue
		}
		if _, err := c.transport.Do(ctx, addr, http.MethodPost,
			fmt.Sprintf("/cluster/groups/%d/snapshot", g), snap, nil); err != nil {
			continue
		}
		c.metrics.SnapshotInstalls.Inc()
		// Refresh the primary's replica list and let a sync round replay
		// whatever committed between snapshot and role push.
		if err := c.assignRolesLocked(ctx, g, gp); err != nil {
			continue
		}
		_, _ = c.transport.Do(ctx, pws.spec.Addr, http.MethodPost,
			fmt.Sprintf("/cluster/groups/%d/sync", g), nil, nil)
	}
}

// SyncAll asks every healthy primary to run an anti-entropy round — the
// harness calls it to bound replica lag at interesting moments; production
// relies on in-band shipping plus rejoin-triggered syncs.
func (c *Coordinator) SyncAll(ctx context.Context) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for g, gp := range c.groups {
		if !c.workers[gp.primary].alive {
			continue
		}
		//lint:ignore blockhold sync fan-out must not interleave with a broadcast advancing the counters; serialized under c.mu by design
		_, _ = c.transport.Do(ctx, c.cfg.Addr(gp.primary), http.MethodPost,
			fmt.Sprintf("/cluster/groups/%d/sync", g), nil, nil)
	}
}

// writableLocked reports whether every group has a live, non-degraded
// primary — the precondition for accepting writes, since queries and steps
// broadcast to all groups.
func (c *Coordinator) writableLocked() bool {
	for _, gp := range c.groups {
		if gp.degraded || !c.workers[gp.primary].alive {
			return false
		}
	}
	return true
}

// rejectWrite answers a write during degraded operation: fail fast with a
// bounded, explicit 503 rather than hang or half-apply.
func (c *Coordinator) rejectWrite(rw http.ResponseWriter) {
	c.metrics.RejectedWrites.Inc()
	secs := int(c.opts.RetryAfter.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	rw.Header().Set("Retry-After", strconv.Itoa(secs))
	server.HTTPError(rw, http.StatusServiceUnavailable, "cluster degraded: writes are paused")
}

// noteAck folds a data-plane response watermark into the group's
// acknowledged LSN.
func (gp *groupPlacement) noteAck(hdr http.Header) {
	if hdr == nil {
		return
	}
	if lsn, err := strconv.ParseUint(hdr.Get(HeaderLSN), 10, 64); err == nil && lsn > gp.acked {
		gp.acked = lsn
	}
}

// Handler returns the client-facing API — the same /v1 surface as the
// single-node server, so streamwatch and every existing client work
// unchanged against a cluster.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/queries", c.handleAddQuery)
	mux.HandleFunc("DELETE /v1/queries/{id}", c.handleRemoveQuery)
	mux.HandleFunc("POST /v1/streams", c.handleAddStream)
	mux.HandleFunc("POST /v1/step", c.handleStep)
	mux.HandleFunc("GET /v1/candidates", c.handleCandidates)
	mux.HandleFunc("GET /v1/stats", c.handleStats)
	mux.HandleFunc("GET /v1/metrics", server.MetricsHandler(c.registry))
	mux.HandleFunc("GET /v1/healthz", func(rw http.ResponseWriter, _ *http.Request) {
		server.WriteJSON(rw, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

type graphRequest struct {
	Graph server.WireGraph `json:"graph"`
}

type stepRequest struct {
	Changes map[string][]server.WireOp `json:"changes"`
}

func (c *Coordinator) handleAddQuery(rw http.ResponseWriter, r *http.Request) {
	var req graphRequest
	if !decodeJSON(rw, r, &req) {
		return
	}
	if _, err := req.Graph.ToGraph(); err != nil {
		server.HTTPError(rw, http.StatusBadRequest, "bad graph: %v", err)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.writableLocked() {
		c.rejectWrite(rw)
		return
	}
	id := c.queries
	fp := fingerprintOf(req.Graph)
	for g, gp := range c.groups {
		var resp WireID
		//lint:ignore blockhold idempotent-broadcast protocol: the Expect counter is read and advanced atomically with the fan-out, which requires holding c.mu across the RPCs
		hdr, err := c.transport.Do(r.Context(), c.cfg.Addr(gp.primary), http.MethodPost,
			fmt.Sprintf("/cluster/groups/%d/queries", g),
			WireAddQuery{Graph: req.Graph, Expect: id, Fingerprint: fp}, &resp)
		gp.noteAck(hdr)
		if err != nil {
			// A partial broadcast is safe to retry: groups that applied it
			// answer idempotently off the Expect key, fingerprint-checked so
			// a different payload under a reused key is rejected, not acked.
			server.HTTPError(rw, proxyStatus(err), "group %d: %v", g, err)
			return
		}
	}
	c.queries++
	server.WriteJSON(rw, http.StatusCreated, WireID{ID: id})
}

func (c *Coordinator) handleRemoveQuery(rw http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		server.HTTPError(rw, http.StatusBadRequest, "bad query id %q", r.PathValue("id"))
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.writableLocked() {
		c.rejectWrite(rw)
		return
	}
	anyRemoved := false
	for g, gp := range c.groups {
		var resp WireRemoved
		//lint:ignore blockhold idempotent-broadcast protocol: removals must not interleave with another broadcast advancing the counters; serialized under c.mu
		hdr, err := c.transport.Do(r.Context(), c.cfg.Addr(gp.primary), http.MethodDelete,
			fmt.Sprintf("/cluster/groups/%d/queries/%d", g, id), nil, &resp)
		gp.noteAck(hdr)
		if err != nil {
			server.HTTPError(rw, proxyStatus(err), "group %d: %v", g, err)
			return
		}
		anyRemoved = anyRemoved || resp.Removed
	}
	if !anyRemoved {
		server.HTTPError(rw, http.StatusNotFound, "unknown query %d", id)
		return
	}
	server.WriteJSON(rw, http.StatusOK, map[string]string{"status": "removed"})
}

func (c *Coordinator) handleAddStream(rw http.ResponseWriter, r *http.Request) {
	var req graphRequest
	if !decodeJSON(rw, r, &req) {
		return
	}
	if _, err := req.Graph.ToGraph(); err != nil {
		server.HTTPError(rw, http.StatusBadRequest, "bad graph: %v", err)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.writableLocked() {
		c.rejectWrite(rw)
		return
	}
	global := int64(c.streams)
	g := c.cfg.GroupOf(global)
	gp := c.groups[g]
	var resp WireID
	//lint:ignore blockhold idempotent-broadcast protocol: the stream counter is read and advanced atomically with the RPC, which requires holding c.mu across it
	hdr, err := c.transport.Do(r.Context(), c.cfg.Addr(gp.primary), http.MethodPost,
		fmt.Sprintf("/cluster/groups/%d/streams", g),
		WireAddStream{Graph: req.Graph, Expect: int(c.cfg.LocalOf(global)),
			Fingerprint: fingerprintOf(req.Graph)}, &resp)
	gp.noteAck(hdr)
	if err != nil {
		server.HTTPError(rw, proxyStatus(err), "group %d: %v", g, err)
		return
	}
	c.streams++
	server.WriteJSON(rw, http.StatusCreated, WireID{ID: int(global)})
}

func (c *Coordinator) handleStep(rw http.ResponseWriter, r *http.Request) {
	var req stepRequest
	if !decodeJSON(rw, r, &req) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.writableLocked() {
		c.rejectWrite(rw)
		return
	}
	// Partition global-stream changes into per-group, group-local maps.
	perGroup := make([]map[string][]server.WireOp, c.cfg.Groups)
	for key, ops := range req.Changes {
		sid, err := strconv.Atoi(key)
		if err != nil {
			server.HTTPError(rw, http.StatusBadRequest, "bad stream id %q", key)
			return
		}
		if sid < 0 || sid >= c.streams {
			server.HTTPError(rw, http.StatusNotFound, "unknown stream %d", sid)
			return
		}
		g := c.cfg.GroupOf(int64(sid))
		if perGroup[g] == nil {
			perGroup[g] = make(map[string][]server.WireOp)
		}
		perGroup[g][strconv.FormatInt(c.cfg.LocalOf(int64(sid)), 10)] = ops
	}
	seq := c.steps
	var all []core.Pair
	for g, gp := range c.groups {
		var resp WirePairs
		//lint:ignore blockhold idempotent-broadcast protocol: the step sequence is read and advanced atomically with the fan-out, which requires holding c.mu across the RPCs
		hdr, err := c.transport.Do(r.Context(), c.cfg.Addr(gp.primary), http.MethodPost,
			fmt.Sprintf("/cluster/groups/%d/step", g),
			WireStep{Seq: seq, Changes: perGroup[g], Fingerprint: fingerprintOf(perGroup[g])}, &resp)
		gp.noteAck(hdr)
		if err != nil {
			server.HTTPError(rw, proxyStatus(err), "group %d: %v", g, err)
			return
		}
		for _, p := range resp.Pairs {
			all = append(all, core.Pair{
				Stream: core.StreamID(c.cfg.GlobalOf(g, int64(p.Stream))),
				Query:  core.QueryID(p.Query),
			})
		}
	}
	c.steps++
	slices.SortFunc(all, core.ComparePairs)
	server.WritePairs(rw, all)
}

func (c *Coordinator) handleCandidates(rw http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var all []core.Pair
	stale := false
	var lag uint64
	for g, gp := range c.groups {
		addr, fromReplica, replicaLSN, ok := c.readTargetLocked(g, gp)
		if !ok {
			server.HTTPError(rw, http.StatusServiceUnavailable, "group %d has no reachable replica", g)
			return
		}
		var resp WirePairs
		//lint:ignore blockhold proxied reads must not interleave with a broadcast, or groups would answer from different steps; serialized under c.mu
		hdr, err := c.transport.Do(r.Context(), addr, http.MethodGet,
			fmt.Sprintf("/cluster/groups/%d/candidates", g), nil, &resp)
		if err != nil {
			server.HTTPError(rw, proxyStatus(err), "group %d: %v", g, err)
			return
		}
		if fromReplica {
			stale = true
			c.metrics.StaleReads.Inc()
			if replicaLSN < gp.acked {
				lag += gp.acked - replicaLSN
			}
		} else {
			gp.noteAck(hdr)
		}
		for _, p := range resp.Pairs {
			all = append(all, core.Pair{
				Stream: core.StreamID(c.cfg.GlobalOf(g, int64(p.Stream))),
				Query:  core.QueryID(p.Query),
			})
		}
	}
	slices.SortFunc(all, core.ComparePairs)
	if stale {
		rw.Header().Set(HeaderStale, "true")
		rw.Header().Set(HeaderStaleLag, strconv.FormatUint(lag, 10))
	}
	server.WritePairs(rw, all)
}

// readTargetLocked picks where to read a group from: its live primary, or —
// degraded — the most caught-up live replica (reported LSN returned so the
// caller can label the staleness).
func (c *Coordinator) readTargetLocked(g int, gp *groupPlacement) (addr string, fromReplica bool, lsn uint64, ok bool) {
	if ws := c.workers[gp.primary]; ws.alive && !gp.degraded {
		return ws.spec.Addr, false, 0, true
	}
	best := ""
	var bestLSN uint64
	for _, id := range gp.replicas {
		ws := c.workers[id]
		if !ws.alive {
			continue
		}
		l, okl := groupApplied(ws.status, g)
		if !okl {
			continue
		}
		if best == "" || l > bestLSN || (l == bestLSN && id < best) {
			best, bestLSN = id, l
		}
	}
	if best == "" {
		return "", false, 0, false
	}
	return c.workers[best].spec.Addr, true, bestLSN, true
}

func (c *Coordinator) handleStats(rw http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	defer c.mu.Unlock()
	agg := WireStats{}
	n := 0
	for g, gp := range c.groups {
		addr, _, _, ok := c.readTargetLocked(g, gp)
		if !ok {
			continue
		}
		var st WireStats
		//lint:ignore blockhold proxied reads must not interleave with a broadcast, or groups would answer from different steps; serialized under c.mu
		if _, err := c.transport.Do(r.Context(), addr, http.MethodGet,
			fmt.Sprintf("/cluster/groups/%d/stats", g), nil, &st); err != nil {
			continue
		}
		if st.Timestamps > agg.Timestamps {
			agg.Timestamps = st.Timestamps
		}
		agg.AvgFilterMs += st.AvgFilterMs
		agg.CandidateRatio += st.CandidateRatio
		n++
	}
	if n > 0 {
		agg.AvgFilterMs /= float64(n)
		agg.CandidateRatio /= float64(n)
	}
	server.WriteJSON(rw, http.StatusOK, agg)
}

// proxyStatus maps a worker-call failure onto the status the coordinator
// reports: deliberate worker responses pass through, transport failures
// surface as 502.
func proxyStatus(err error) int {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code
	}
	return http.StatusBadGateway
}
