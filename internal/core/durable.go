package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"nntstream/internal/graph"
	"nntstream/internal/wal"
)

// DurableEngine makes a Monitor crash-safe: every accepted mutation is
// appended to a write-ahead log before it is applied, and the engine's
// logical state is periodically folded into an atomic checkpoint that lets
// the log be truncated. Booting from a data directory restores the
// checkpoint (if any) and replays the log's surviving suffix, so a process
// killed at any instant recovers to exactly the acknowledged operations.
//
// Ordering guarantees come from two layers: the WAL assigns strictly
// increasing LSNs, and the checkpoint records the LSN it has folded in, so
// replay skips records the checkpoint already covers — including the crash
// window between checkpoint publication and log truncation, where the old
// records still exist on disk but must not be applied twice. The log's LSN
// counter is the engine's one watermark: Reset keeps it, and boot rebases it
// past the checkpoint's LSN, so it always names the last record folded in.
//
// Append-before-apply has one wrinkle: an operation the inner engine rejects
// (an unknown ID, a duplicate, an invalid change set) has already been
// logged. The engine withdraws it with Log.Withdraw, which undoes the log's
// last append; the single-writer discipline (all mutations serialize behind
// mu) makes that undo safe.
type DurableEngine struct {
	mu     sync.Mutex
	inner  *Monitor
	log    *wal.Log
	dir    string
	cpPath string

	fs       wal.FS
	metrics  *wal.Metrics
	onCommit func(wal.Record)
	closed   bool

	// bufferCommits redirects onCommit notifications into pendingCommits
	// while a StepAllBatch group commit is open: records are not durable
	// until the batch's closing fsync, so shipping them per step would let a
	// replica apply state the primary can still lose. StepAllBatch flushes
	// the buffer only after the fsync succeeds.
	bufferCommits  bool
	pendingCommits []wal.Record

	stopCheckpoint chan struct{}
	checkpointWG   sync.WaitGroup
}

// DurableOptions configures OpenDurableEngine.
type DurableOptions struct {
	// Workers bounds the evaluation pool of a ParallelFilter (0 =
	// GOMAXPROCS, 1 = sequential).
	Workers int
	// Fsync is the WAL fsync policy (default wal.SyncAlways).
	Fsync wal.SyncPolicy
	// FsyncInterval is the cadence for wal.SyncInterval (default
	// wal.DefaultSyncInterval).
	FsyncInterval time.Duration
	// CheckpointInterval is the background checkpoint cadence; zero disables
	// background checkpoints (Close still writes a final one).
	CheckpointInterval time.Duration
	// Metrics receives WAL and checkpoint observations; nil disables.
	Metrics *wal.Metrics
	// WrapFile, when non-nil, wraps the WAL file as it is opened — the
	// benchmark probe's hook for timing the log's writes and fsyncs.
	WrapFile func(wal.LogFile) wal.LogFile
	// FS is the file system the data dir lives on (default wal.OSFS); crash
	// tests pass a simulated disk.
	FS wal.FS
	// OnCommit, when non-nil, receives every successfully applied mutation as
	// its LSN-stamped WAL record, in commit order, under the engine's write
	// lock — the replication shipping hook. It is not invoked for records
	// replayed during recovery (they were committed by an earlier process) or
	// applied through ApplyRecord (they arrived from another primary).
	OnCommit func(wal.Record)
}

const (
	walFileName        = "wal.log"
	checkpointFileName = "checkpoint.json"
)

// OpenDurableEngine boots a durable engine from dir, creating it on first
// use: restore the checkpoint if one exists, then replay WAL records beyond
// the checkpoint's LSN. The filter factory must produce deterministic
// filters (the same sequence of operations rebuilds the same state) — the
// same property snapshots already rely on.
func OpenDurableEngine(dir string, factory FilterFactory, opts DurableOptions) (*DurableEngine, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = wal.OSFS{}
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: creating data dir %s: %w", dir, err)
	}
	f := factory()
	if pf, ok := f.(ParallelFilter); ok {
		pf.SetWorkers(opts.Workers)
	}
	d := &DurableEngine{
		inner:    NewMonitor(f),
		dir:      dir,
		cpPath:   filepath.Join(dir, checkpointFileName),
		fs:       fsys,
		metrics:  opts.Metrics,
		onCommit: opts.OnCommit,
	}

	// A crash during checkpointing can leave a stale temp file; the rename
	// never happened, so it holds no authoritative state.
	_ = fsys.Remove(d.cpPath + ".tmp")

	opts.Metrics.ObserveRecoveryStart()
	walSeq, err := d.restoreCheckpoint()
	if err != nil {
		return nil, err
	}
	walPath := filepath.Join(dir, walFileName)
	if opts.WrapFile != nil {
		fsys = wrapFS{FS: fsys, path: walPath, wrap: opts.WrapFile}
	}
	log, err := wal.Open(walPath, wal.Options{
		Sync:         opts.Fsync,
		SyncInterval: opts.FsyncInterval,
		Metrics:      opts.Metrics,
		FS:           fsys,
		OnRecord: func(r wal.Record) error {
			if r.LSN <= walSeq {
				// Already folded into the checkpoint: the process died
				// between publishing the checkpoint and truncating the log.
				return nil
			}
			return d.replayRecord(r)
		},
	})
	if err != nil {
		return nil, err
	}
	d.log = log
	if walSeq > log.LastLSN() {
		// The checkpoint is ahead of the (reset or torn) log; future LSNs
		// must stay above everything a checkpoint has ever recorded, or the
		// next recovery would skip them. Any surviving records were already
		// folded into the checkpoint, so discard them and continue numbering
		// from the checkpoint's LSN.
		err := log.Reset()
		if err == nil {
			err = log.Rebase(walSeq)
		}
		if err != nil {
			log.Close()
			return nil, fmt.Errorf("core: rebasing log after checkpoint-ahead boot: %w", err)
		}
	}
	if opts.CheckpointInterval > 0 {
		d.stopCheckpoint = make(chan struct{})
		d.checkpointWG.Add(1)
		go d.checkpointLoop(opts.CheckpointInterval, d.stopCheckpoint)
	}
	return d, nil
}

// wrapFS applies DurableOptions.WrapFile to the WAL file as it is opened.
type wrapFS struct {
	wal.FS
	path string
	wrap func(wal.LogFile) wal.LogFile
}

func (w wrapFS) OpenFile(name string, flag int, perm os.FileMode) (wal.LogFile, error) {
	f, err := w.FS.OpenFile(name, flag, perm)
	if err == nil && name == w.path {
		f = w.wrap(f)
	}
	return f, err
}

// restoreCheckpoint loads the checkpoint file if present and returns its
// WALSeq (zero when no checkpoint exists).
func (d *DurableEngine) restoreCheckpoint() (uint64, error) {
	f, err := d.fs.OpenFile(d.cpPath, os.O_RDONLY, 0)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("core: opening checkpoint %s: %w", d.cpPath, err)
	}
	defer f.Close()
	file, err := readSnapshotFrom(f)
	if err != nil {
		return 0, fmt.Errorf("core: checkpoint %s: %w", d.cpPath, err)
	}
	if err := d.inner.restore(file); err != nil {
		return 0, fmt.Errorf("core: restoring checkpoint %s: %w", d.cpPath, err)
	}
	return file.WALSeq, nil
}

// replayRecord applies one WAL record during recovery.
func (d *DurableEngine) replayRecord(r wal.Record) error {
	switch r.Kind {
	case wal.KindAddQuery:
		//lint:ignore walorder replay applies a record already present in the log; re-appending would duplicate it
		return d.inner.replayAddQuery(QueryID(r.ID), r.Graph)
	case wal.KindRemoveQuery:
		//lint:ignore walorder replay applies a record already present in the log; re-appending would duplicate it
		return d.inner.RemoveQuery(QueryID(r.ID))
	case wal.KindAddStream:
		//lint:ignore walorder replay applies a record already present in the log; re-appending would duplicate it
		return d.inner.replayAddStream(StreamID(r.ID), r.Graph)
	case wal.KindStepAll:
		changes := make(map[StreamID]graph.ChangeSet, len(r.Changes))
		for id, cs := range r.Changes {
			changes[StreamID(id)] = cs
		}
		//lint:ignore walorder replay applies a record already present in the log; re-appending would duplicate it
		_, err := d.inner.stepCount(changes)
		return err
	default:
		return fmt.Errorf("core: replaying unknown WAL record kind %d", r.Kind)
	}
}

// errClosed reports use after Close/Crash.
var errDurableClosed = fmt.Errorf("core: durable engine is closed")

// logged wraps a mutation in the append-before-apply protocol: the record is
// appended (and, under SyncAlways, made durable) first; if the inner engine
// then rejects the operation, the record is withdrawn from the log. A record
// without an LSN is a local mutation: the log numbers it, and OnCommit sees
// it. One that carries its LSN was shipped from a primary and keeps it.
func (d *DurableEngine) logged(r wal.Record, apply func() error) error {
	if d.closed {
		return errDurableClosed
	}
	shipped := r.LSN != 0
	var err error
	if shipped {
		err = d.log.AppendAt(r)
	} else {
		r.LSN, err = d.log.Append(r)
	}
	if err != nil {
		return err
	}
	if err := apply(); err != nil {
		if werr := d.log.Withdraw(); werr != nil {
			return fmt.Errorf("%w (and withdrawing the WAL record failed: %v)", err, werr)
		}
		return err
	}
	if d.onCommit != nil && !shipped {
		if d.bufferCommits {
			d.pendingCommits = append(d.pendingCommits, r)
		} else {
			d.onCommit(r)
		}
	}
	return nil
}

// AddQuery logs and registers a query pattern.
func (d *DurableEngine) AddQuery(q *graph.Graph) (QueryID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	nextQ, _ := d.inner.nextIDs()
	var id QueryID
	err := d.logged(
		wal.Record{Kind: wal.KindAddQuery, ID: int64(nextQ), Graph: q},
		func() (e error) { id, e = d.inner.AddQuery(q); return },
	)
	if err != nil {
		return 0, err
	}
	return id, nil
}

// RemoveQuery logs and deregisters a pattern.
func (d *DurableEngine) RemoveQuery(id QueryID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.logged(
		wal.Record{Kind: wal.KindRemoveQuery, ID: int64(id)},
		func() error { return d.inner.RemoveQuery(id) },
	)
}

// AddStream logs and registers a stream with starting graph g0.
func (d *DurableEngine) AddStream(g0 *graph.Graph) (StreamID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, nextS := d.inner.nextIDs()
	var id StreamID
	err := d.logged(
		wal.Record{Kind: wal.KindAddStream, ID: int64(nextS), Graph: g0},
		func() (e error) { id, e = d.inner.AddStream(g0); return },
	)
	if err != nil {
		return 0, err
	}
	return id, nil
}

// StepAll logs one global timestamp's change sets and applies them. The
// inner engine validates the whole batch before any filter state changes, so
// a rejected batch is withdrawn from the log and leaves no trace.
func (d *DurableEngine) StepAll(changes map[StreamID]graph.ChangeSet) ([]Pair, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	rec := wal.Record{Kind: wal.KindStepAll, Changes: make(map[int64]graph.ChangeSet, len(changes))}
	for id, cs := range changes {
		rec.Changes[int64(id)] = cs
	}
	var pairs []Pair
	err := d.logged(rec, func() (e error) { pairs, e = d.inner.StepAll(changes); return })
	if err != nil {
		return nil, err
	}
	return pairs, nil
}

// StepAllBatch applies a sequence of timestamps under one durability
// barrier: every step is appended to the WAL and applied in order exactly as
// N sequential StepAll calls would (same records, same LSNs, bit-identical
// engine state), but under wal.SyncAlways the whole batch shares a single
// closing fsync instead of paying one per step — the group commit that makes
// the batched ingest path's throughput. The ack contract shifts accordingly:
// no step in the batch is durable until StepAllBatch returns, so callers
// must not acknowledge any of it earlier.
//
// Atomicity is per step, not per batch: each step validates fully before it
// touches filter state (the StepAll contract), and a step the inner engine
// rejects is withdrawn from the WAL; steps applied before the failure stay
// applied and durable. The returned counts say how far the batch got —
// applied steps and the total candidate pairs those steps reported.
//
// OnCommit notifications are buffered for the duration of the batch and
// delivered — in commit order, under the engine's write lock, exactly as
// StepAll would — only after the group commit's closing fsync succeeds:
// shipping a record to a replica before it is durable on the primary would
// invert the durable-before-ship ordering replication depends on. If the
// closing fsync fails, the error wraps wal.ErrSyncFailed, nothing is
// shipped, and callers must not acknowledge any step of the batch (the
// applied counts then describe in-memory state of unknown durability).
func (d *DurableEngine) StepAllBatch(batch []map[StreamID]graph.ChangeSet) (applied, pairs int, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, 0, errDurableClosed
	}
	d.bufferCommits = true
	d.pendingCommits = d.pendingCommits[:0]
	defer func() {
		// Deferred so that a panic in a step, which the log turns into a
		// sticky failure, cannot leave later commits buffered.
		d.bufferCommits = false
		d.pendingCommits = d.pendingCommits[:0]
	}()
	err = d.log.GroupCommit(func() error {
		for _, changes := range batch {
			rec := wal.Record{Kind: wal.KindStepAll, Changes: make(map[int64]graph.ChangeSet, len(changes))}
			for id, cs := range changes {
				rec.Changes[int64(id)] = cs
			}
			var n int
			if err := d.logged(rec, func() (e error) { n, e = d.inner.stepCount(changes); return }); err != nil {
				return err
			}
			applied++
			pairs += n
		}
		return nil
	})
	if d.onCommit != nil && !errors.Is(err, wal.ErrSyncFailed) {
		// The applied prefix (whole batch when err is nil) is durable: ship
		// it. A per-step rejection leaves earlier steps committed, so they
		// ship exactly as N sequential StepAll calls would have.
		for _, r := range d.pendingCommits {
			d.onCommit(r)
		}
	}
	return applied, pairs, err
}

// Checkpoint folds the current state into the checkpoint file atomically and
// truncates the WAL. Safe to call at any time; concurrent mutations wait.
func (d *DurableEngine) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errDurableClosed
	}
	return d.checkpointLocked()
}

// checkpointLocked serializes the engine state to <dir>/checkpoint.json via
// a temp file + fsync + rename, then empties the log. A crash before the
// rename keeps the old checkpoint and the full log; a crash between rename
// and reset keeps both the new checkpoint and the stale records, which
// replay then skips by LSN.
func (d *DurableEngine) checkpointLocked() error {
	start := time.Now()
	file := d.inner.snapshotFile(d.log.LastLSN())
	err := wal.WriteFileAtomic(d.fs, d.cpPath, func(w io.Writer) error {
		return writeSnapshotTo(w, file)
	})
	if err == nil {
		err = d.log.Reset()
	}
	d.metrics.ObserveCheckpoint(time.Since(start), err)
	return err
}

// checkpointLoop takes its stop channel as an argument: stopLoop clears the
// field, possibly before this goroutine first runs, and a loop that re-read
// it would then wait on a nil channel forever.
func (d *DurableEngine) checkpointLoop(interval time.Duration, stop <-chan struct{}) {
	defer d.checkpointWG.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			d.mu.Lock()
			if !d.closed {
				_ = d.checkpointLocked() // failure is observed in metrics; next tick retries
			}
			d.mu.Unlock()
		}
	}
}

// Close writes a final checkpoint and releases the log. A checkpoint that
// fails leaves the log holding the state, so Close then syncs the log itself.
// The engine refuses further mutations afterwards.
func (d *DurableEngine) Close() error {
	d.stopLoop()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	err := d.checkpointLocked()
	if err != nil {
		if serr := d.log.Sync(); serr != nil {
			err = fmt.Errorf("%w (and syncing the WAL failed: %v)", err, serr)
		}
	}
	if cerr := d.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// Crash releases the engine without checkpointing or syncing — the test
// hook that simulates a hard kill. The log's file is closed without an
// fsync, so what is durable is only what the WAL's fsync policy has already
// synced; on a real file system the page cache still holds the rest, and
// only a simulated disk's crash drops it.
func (d *DurableEngine) Crash() error {
	d.stopLoop()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	return d.log.Close()
}

func (d *DurableEngine) stopLoop() {
	d.mu.Lock()
	stop := d.stopCheckpoint
	d.stopCheckpoint = nil
	d.mu.Unlock()
	if stop != nil {
		close(stop)
		d.checkpointWG.Wait()
	}
}

// Read paths delegate to the inner engine, whose own readers-writer lock
// provides the read-side exclusion.

// Candidates returns the current candidate pairs.
func (d *DurableEngine) Candidates() []Pair { return d.inner.Candidates() }

// Stats returns accumulated statistics.
func (d *DurableEngine) Stats() Stats { return d.inner.Stats() }

// QueryCount and StreamCount report workload sizes.
func (d *DurableEngine) QueryCount() int  { return d.inner.QueryCount() }
func (d *DurableEngine) StreamCount() int { return d.inner.StreamCount() }

// SetMetrics forwards engine instrumentation to the wrapped engine.
func (d *DurableEngine) SetMetrics(em *EngineMetrics) { d.inner.SetMetrics(em) }

// NextIDs reports the IDs the next AddQuery/AddStream will be assigned — the
// idempotency key a cluster coordinator uses to detect a broadcast a group
// already applied when it retries after a partial failure.
func (d *DurableEngine) NextIDs() (QueryID, StreamID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.inner.nextIDs()
}

// AppliedLSN reports the LSN of the last record folded into the engine state,
// the replication watermark replicas and coordinators compare. It is the
// log's LSN counter: a rejected record is withdrawn before mu is released,
// a checkpoint's log reset keeps the counter, and boot rebases it past the
// checkpoint's LSN.
func (d *DurableEngine) AppliedLSN() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.LastLSN()
}

// ApplyRecord applies one primary-shipped WAL record to a replica engine:
// append-before-apply into the replica's own log (preserving the primary's
// LSN), then fold into the engine state. Records at or below the applied
// watermark are idempotently skipped — re-shipping after a retry is harmless.
// A record beyond applied+1 is refused with ErrReplicaGap; the replica must
// catch up via RecordsSince on the primary (or a snapshot install when the
// primary's log was compacted past the gap). OnCommit is not invoked: the
// record was committed by the primary, and replicas do not re-ship.
func (d *DurableEngine) ApplyRecord(r wal.Record) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errDurableClosed
	}
	applied := d.log.LastLSN()
	if r.LSN <= applied {
		return nil
	}
	if r.LSN != applied+1 {
		return fmt.Errorf("%w (applied %d, shipped %d)", ErrReplicaGap, applied, r.LSN)
	}
	return d.logged(r, func() error { return d.replayRecord(r) })
}

// RecordsSince collects the WAL records with LSN > from, the catch-up feed a
// lagging replica replays through ApplyRecord. It returns wal.ErrCompacted
// when a checkpoint has folded away records the caller still needs — the
// signal to fall back to SnapshotBytes + InstallSnapshot.
func (d *DurableEngine) RecordsSince(from uint64) ([]wal.Record, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, errDurableClosed
	}
	var recs []wal.Record
	err := d.log.RecordsFrom(from, func(r wal.Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return recs, nil
}

// SnapshotBytes serializes the current engine state (stamped with the applied
// LSN) in the checkpoint file format — the transfer unit for bootstrapping a
// replica whose gap predates the primary's log.
func (d *DurableEngine) SnapshotBytes() ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, errDurableClosed
	}
	var buf bytes.Buffer
	file := d.inner.snapshotFile(d.log.LastLSN())
	if err := writeSnapshotTo(&buf, file); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// InstallSnapshot seeds a data directory with a snapshot produced by
// SnapshotBytes, discarding any WAL the directory held: the next
// OpenDurableEngine boots from the snapshot's state at its applied LSN and
// accepts shipped records from there. It must not be called on a directory an
// open engine is using.
func InstallSnapshot(dir string, data []byte) error {
	if _, err := readSnapshotFrom(bytes.NewReader(data)); err != nil {
		return fmt.Errorf("core: validating snapshot: %w", err)
	}
	fsys := wal.OSFS{}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: creating data dir %s: %w", dir, err)
	}
	if err := fsys.Remove(filepath.Join(dir, walFileName)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("core: discarding stale WAL in %s: %w", dir, err)
	}
	return wal.WriteFileAtomic(fsys, filepath.Join(dir, checkpointFileName), func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
