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
// appended to a write-ahead log before it is applied, and within one
// CheckpointInterval folded into an atomic checkpoint that lets the log be
// truncated. Booting from a data directory restores the checkpoint (if any)
// and replays the log's surviving suffix, so a process killed at any
// instant recovers to exactly the acknowledged operations.
//
// Ordering guarantees come from two layers: the WAL assigns strictly
// increasing LSNs, and the checkpoint records the LSN it has folded in, so
// replay skips records the checkpoint already covers — including the crash
// window between checkpoint publication and log truncation, where the old
// records still exist on disk but must not be applied twice. The log's LSN
// counter is the engine's one watermark: Reset keeps it, and boot rebases it
// past the checkpoint's LSN, so it always names the last record folded in.
//
// Every write goes through commit: append, then apply with the function
// boot replay calls, under one group commit. Append-before-apply has one
// wrinkle: an operation the inner engine rejects (an unknown ID, a
// duplicate, an invalid change set) has already been logged. The engine
// withdraws it with Log.Withdraw, which undoes the log's last append; the
// single-writer discipline (all mutations serialize behind mu) makes that
// undo safe. A crash before the window closes can still leave the withdrawn
// record on the disk as the log's last frame, and boot cuts it
// (wal.ErrRejected).
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

	// cpTimer runs checkpointDue; it is armed while records await a checkpoint.
	cpEvery time.Duration
	cpTimer *time.Timer
}

// DurableOptions configures OpenDurableEngine.
type DurableOptions struct {
	// Workers bounds the evaluation pool of a ParallelFilter (0 =
	// GOMAXPROCS, 1 = sequential).
	Workers int
	// Fsync is the WAL fsync policy (default wal.SyncAlways).
	Fsync wal.SyncPolicy
	// FsyncInterval bounds how long wal.SyncInterval leaves a write
	// unsynced (default wal.DefaultSyncInterval).
	FsyncInterval time.Duration
	// CheckpointInterval bounds how long an applied record waits to be
	// folded into a checkpoint, so an idle engine writes none. Zero
	// disables timed checkpoints (Close still writes a final one).
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
	// lock, once the commit's closing fsync has succeeded — the replication
	// shipping hook. It is not invoked for records
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
		cpEvery:  opts.CheckpointInterval,
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
			_, err := d.inner.applyRecord(r, nil)
			if rejection(err) { // a live write withdraws such a record
				return fmt.Errorf("%w: %w", wal.ErrRejected, err)
			}
			return err
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
	if log.LastLSN() > walSeq {
		d.mu.Lock()
		d.armCheckpoint() // replay applied records no checkpoint has folded
		d.mu.Unlock()
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

// errDurableClosed reports use after Close/Crash.
var errDurableClosed = fmt.Errorf("core: durable engine is closed")

// commit is the engine's one write path. Inside one group commit it appends
// each record and applies it with Monitor.applyRecord, the function boot
// replay calls, so live and recovered state come from one function. A
// commit's records are all local or all shipped: a local mutation has no
// LSN until the log numbers it, while a record shipped from a primary
// (ApplyRecord) carries its LSN and keeps it. A record the engine rejects
// is withdrawn and ends the commit; the records before it stay applied.
// applied and pairs count the records applied and the candidate pairs their
// steps reported; a step also builds its pair list into cands when cands is
// non-nil.
//
// Under wal.SyncAlways nothing is durable before the window's closing fsync,
// so OnCommit receives the applied local records only after it, in commit
// order: shipping earlier would let a replica apply state the primary can
// still lose. When that fsync fails the error wraps wal.ErrSyncFailed,
// nothing ships, and callers must acknowledge none of the records: the
// engine then holds state of unknown durability, the log refuses every later
// write, and Err reports the failure.
func (d *DurableEngine) commit(cands *[]Pair, recs ...wal.Record) (applied, pairs int, err error) {
	if d.closed {
		return 0, 0, errDurableClosed
	}
	shipped := len(recs) > 0 && recs[0].LSN != 0
	err = d.log.GroupCommit(func() error {
		for i := range recs {
			var err error
			if shipped {
				err = d.log.AppendAt(recs[i])
			} else {
				recs[i].LSN, err = d.log.Append(recs[i])
			}
			if err != nil {
				return err
			}
			n, err := d.inner.applyRecord(recs[i], cands)
			if err != nil {
				if werr := d.log.Withdraw(); werr != nil {
					return fmt.Errorf("%w (and withdrawing the WAL record failed: %v)", err, werr)
				}
				return err
			}
			applied++
			pairs += n
		}
		return nil
	})
	if applied > 0 {
		d.armCheckpoint()
	}
	if d.onCommit != nil && !shipped && !errors.Is(err, wal.ErrSyncFailed) {
		for _, r := range recs[:applied] {
			d.onCommit(r)
		}
	}
	return applied, pairs, err
}

// stepRecord is the WAL record of one global timestamp's change sets.
func stepRecord(changes map[StreamID]graph.ChangeSet) wal.Record {
	r := wal.Record{Kind: wal.KindStepAll, Changes: make(map[int64]graph.ChangeSet, len(changes))}
	for id, cs := range changes {
		r.Changes[int64(id)] = cs
	}
	return r
}

// AddQuery logs and registers a query pattern.
func (d *DurableEngine) AddQuery(q *graph.Graph) (QueryID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	id, _ := d.inner.nextIDs()
	if _, _, err := d.commit(nil, wal.Record{Kind: wal.KindAddQuery, ID: int64(id), Graph: q}); err != nil {
		return 0, err
	}
	return id, nil
}

// RemoveQuery logs and deregisters a pattern.
func (d *DurableEngine) RemoveQuery(id QueryID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, _, err := d.commit(nil, wal.Record{Kind: wal.KindRemoveQuery, ID: int64(id)})
	return err
}

// AddStream logs and registers a stream with starting graph g0.
func (d *DurableEngine) AddStream(g0 *graph.Graph) (StreamID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, id := d.inner.nextIDs()
	if _, _, err := d.commit(nil, wal.Record{Kind: wal.KindAddStream, ID: int64(id), Graph: g0}); err != nil {
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
	var cands []Pair
	if _, _, err := d.commit(&cands, stepRecord(changes)); err != nil {
		return nil, err
	}
	return cands, nil
}

// StepAllBatch applies a sequence of timestamps in one commit: the same
// records, LSNs and engine state as N sequential StepAll calls, but under
// wal.SyncAlways the whole batch shares one closing fsync — the batched
// ingest path's group commit. No step is durable until StepAllBatch
// returns, so callers must not acknowledge any of it earlier.
//
// Atomicity is per step, not per batch: a step the inner engine rejects is
// withdrawn and ends the batch, and the steps before it stay applied. The
// returned counts are the applied steps and the pairs they reported. A
// failed closing fsync behaves as for every write (see commit).
func (d *DurableEngine) StepAllBatch(batch []map[StreamID]graph.ChangeSet) (applied, pairs int, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	recs := make([]wal.Record, len(batch))
	for i, changes := range batch {
		recs[i] = stepRecord(changes)
	}
	return d.commit(nil, recs...)
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
// replay then skips by LSN. It disarms the checkpoint timer, and re-arms
// it when it fails on an open engine, so the timer retries. A failed log
// writes nothing and stays disarmed: the state holds writes whose clients
// were refused, and a checkpoint would make them durable.
func (d *DurableEngine) checkpointLocked() error {
	d.disarmCheckpoint()
	if err := d.log.Err(); err != nil {
		return err
	}
	start := time.Now()
	file := d.inner.snapshotFile(d.log.LastLSN())
	err := wal.WriteFileAtomic(d.fs, d.cpPath, func(w io.Writer) error {
		return writeSnapshotTo(w, file)
	})
	if err == nil {
		err = d.log.Reset()
	}
	d.metrics.ObserveCheckpoint(time.Since(start), err)
	if err != nil && !d.closed {
		d.armCheckpoint()
	}
	return err
}

// armCheckpoint, under mu, arms the checkpoint timer unless it is armed.
func (d *DurableEngine) armCheckpoint() {
	if d.cpEvery > 0 && d.cpTimer == nil {
		d.cpTimer = time.AfterFunc(d.cpEvery, d.checkpointDue)
	}
}

// disarmCheckpoint, under mu, stops the checkpoint timer.
func (d *DurableEngine) disarmCheckpoint() {
	if d.cpTimer != nil {
		d.cpTimer.Stop()
		d.cpTimer = nil
	}
}

// checkpointDue is the checkpoint timer's callback. One that fired while
// Close, Crash or another checkpoint held mu finds it disarmed.
func (d *DurableEngine) checkpointDue() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cpTimer != nil {
		_ = d.checkpointLocked() // failure is observed in metrics, and re-arms
	}
}

// Close writes a final checkpoint and releases the log. A checkpoint that
// fails leaves the log holding the state, so Close then syncs the log itself.
// A failed log does neither, so Close makes no refused write durable. The
// engine refuses further mutations afterwards.
func (d *DurableEngine) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	err := d.checkpointLocked()
	if err != nil && d.log.Err() == nil {
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
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	d.disarmCheckpoint()
	return d.log.Close()
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

// Err reports why the engine refuses every write (a failed log, or Close),
// nil while it accepts them. A failed commit may leave its records applied
// in memory, so a retry that reads the engine's state must check Err first.
func (d *DurableEngine) Err() error { return d.log.Err() }

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

// ApplyRecord applies one primary-shipped WAL record to a replica engine
// through the same commit as every local write, keeping the primary's LSN.
// Records at or below the applied watermark are idempotently skipped —
// re-shipping after a retry is harmless.
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
	_, _, err := d.commit(nil, r)
	return err
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
