// Package wal is the durability substrate of the monitoring engine: an
// append-only write-ahead log of logical engine mutations (query and stream
// registrations, per-timestamp change sets) plus crash-safe file helpers for
// checkpointing.
//
// Records are length-prefixed and CRC32-checksummed, carry strictly
// increasing log sequence numbers, and are written with a single sequential
// write each, so a crash can tear at most the final record. The file keeps a
// zero-filled tail past the last record, which a zero length ends, so most
// appends overwrite allocated blocks and their fsync commits no size change.
// Opening a log replays its valid prefix, keeps an all-zero tail and
// physically truncates any other tail instead of failing — recovery after a
// hard kill is the designed-for path, not an error path. Fsync policy is
// configurable per log: every append, on a background interval, or never
// (leaving flushing to the OS).
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// SyncPolicy selects when the log fsyncs.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: zero acknowledged-write loss,
	// append latency includes the device flush.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background cadence: a crash loses at most
	// the last interval's appends.
	SyncInterval
	// SyncNever leaves flushing to the OS page cache: fastest, weakest.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy maps the -fsync flag values onto policies.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or never)", s)
	}
}

// LogFile is the file surface the log needs; *os.File satisfies it, and so
// do internal/simdisk's files. It is an alias of its interface literal, so
// an FS whose OpenFile returns the same literal need not import this
// package.
type LogFile = interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	Sync() error
	Truncate(size int64) error
}

// An append that outgrows the file carries the file's extension in its own
// write, so the one fsync that covers the record covers the size change: the
// frame plus zeros as long as the log, clamped to [minGrow, maxGrow], with
// the new end rounded down to a minGrow boundary. Appends then overwrite
// that tail until it runs out.
const (
	minGrow = 4 << 10
	maxGrow = 1 << 20
)

// DefaultSyncInterval is the SyncInterval cadence when Options leaves it
// zero.
const DefaultSyncInterval = 100 * time.Millisecond

// Options configures Open.
type Options struct {
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SyncInterval is the background flush cadence for SyncInterval
	// (default DefaultSyncInterval).
	SyncInterval time.Duration
	// OnRecord, when non-nil, receives each valid record of the existing
	// log during Open, in LSN order — the recovery replay hook. An error
	// aborts Open.
	OnRecord func(Record) error
	// Metrics receives append/fsync/recovery observations; nil disables.
	Metrics *Metrics
	// FS is the file system the log lives on (default OSFS).
	FS FS
}

// Log is a single-file append-only record log. Appends are serialized
// internally; one Log has exactly one writer process (no advisory locking —
// the engine layer guarantees it).
type Log struct {
	mu      sync.Mutex
	f       LogFile
	path    string
	offset  int64 // end of the valid frame region (includes the magic)
	size    int64 // the file's length: offset plus the zero-filled tail
	lastLSN uint64
	policy  SyncPolicy
	dirty   bool // bytes written since the last fsync
	// deferSync suppresses the per-append SyncAlways fsync inside a
	// GroupCommit window; the window's closing fsync covers every record
	// appended within it.
	deferSync bool
	err       error // sticky failure; the log refuses further appends
	metrics   *Metrics
	scratch   []byte

	stop chan struct{}
	wg   sync.WaitGroup
}

// Open opens (creating if absent) the log at path, replays the valid record
// prefix through opts.OnRecord, truncates any torn tail (an all-zero tail is
// kept for later appends to overwrite), and positions the log for
// appending. LSNs continue from the last valid record. A log that starts
// empty may be a new name in its directory, so Open fsyncs the directory
// once before any record can be acknowledged.
func Open(path string, opts Options) (*Log, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = OSFS{}
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	l := &Log{
		f:       f,
		path:    path,
		policy:  opts.Sync,
		metrics: opts.Metrics,
	}
	fresh, err := l.recover(opts.OnRecord)
	if err == nil && fresh {
		err = syncDir(fsys, filepath.Dir(path))
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	if opts.Sync == SyncInterval {
		interval := opts.SyncInterval
		if interval <= 0 {
			interval = DefaultSyncInterval
		}
		l.stop = make(chan struct{})
		l.wg.Add(1)
		go l.syncLoop(interval)
	}
	return l, nil
}

// recover scans the existing file, replays valid records, and truncates the
// file to the valid prefix unless all that follows it is zero. A log
// written without a zero tail opens unchanged and gains one on its next
// append. fresh reports a file that held no whole magic, which recover
// starts over.
func (l *Log) recover(onRecord func(Record) error) (fresh bool, err error) {
	data, err := io.ReadAll(l.f)
	if err != nil {
		return false, fmt.Errorf("wal: reading %s: %w", l.path, err)
	}
	if len(data) < len(fileMagic) {
		if len(data) > 0 {
			// A crash tore the very first write (the magic itself).
			if err := l.rewindTo(0); err != nil {
				return false, err
			}
			l.metrics.observeRecovery(scanResult{}, int64(len(data)))
		}
		if _, err := l.f.Write(fileMagic); err != nil {
			return false, fmt.Errorf("wal: writing magic to %s: %w", l.path, err)
		}
		l.offset, l.size = int64(len(fileMagic)), int64(len(fileMagic))
		l.dirty = true
		return true, nil
	}
	if !bytes.Equal(data[:len(fileMagic)], fileMagic) {
		// Never truncate a file that isn't ours.
		return false, fmt.Errorf("wal: %s is not a WAL file (bad magic)", l.path)
	}
	res, err := scanFrames(data[len(fileMagic):], onRecord)
	if err != nil {
		return false, fmt.Errorf("wal: replaying %s: %w", l.path, err)
	}
	end := int64(len(fileMagic)) + res.validLen
	l.size = int64(len(data))
	var torn int64
	if len(bytes.TrimLeft(data[end:], "\x00")) > 0 {
		torn = l.size - end
	}
	l.metrics.observeRecovery(res, torn)
	if torn > 0 {
		if err := l.rewindTo(end); err != nil {
			return false, err
		}
		if err := l.f.Sync(); err != nil {
			return false, fmt.Errorf("wal: syncing truncated %s: %w", l.path, err)
		}
	} else {
		if _, err := l.f.Seek(end, io.SeekStart); err != nil {
			return false, fmt.Errorf("wal: seeking %s: %w", l.path, err)
		}
	}
	l.offset = end
	l.lastLSN = res.lastLSN
	return false, nil
}

// rewindTo truncates the file to size, zero tail included, and repositions
// the write cursor there (a bare Truncate leaves the cursor beyond EOF, where
// the next write would punch a zero-filled hole).
func (l *Log) rewindTo(size int64) error {
	if err := l.f.Truncate(size); err != nil {
		return fmt.Errorf("wal: truncating %s to %d: %w", l.path, size, err)
	}
	l.size = size
	if _, err := l.f.Seek(size, io.SeekStart); err != nil {
		return fmt.Errorf("wal: seeking %s to %d: %w", l.path, size, err)
	}
	return nil
}

// Append assigns the next LSN to r, frames it, and writes it in one write
// call (with the file's extension when it outgrows the zero tail), fsyncing
// per policy. It returns the assigned LSN. On a failed or short write the
// file is rolled back to the previous record boundary so the log never
// retains a half-written frame across its own error return.
func (l *Log) Append(r Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	r.LSN = l.lastLSN + 1
	if err := l.appendLocked(r); err != nil {
		return 0, err
	}
	return r.LSN, nil
}

// AppendAt appends a record that already carries its LSN — the replication
// receive path, where a replica persists records exactly as the primary's log
// assigned them so the two logs stay LSN-identical. The LSN must be strictly
// beyond the last local record; LSN gaps are legal (the gap records were
// folded into a shipped snapshot).
func (l *Log) AppendAt(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if r.LSN <= l.lastLSN {
		return fmt.Errorf("wal: AppendAt LSN %d is not beyond last LSN %d", r.LSN, l.lastLSN)
	}
	return l.appendLocked(r)
}

func (l *Log) appendLocked(r Record) error {
	frame, err := appendPayload(append(l.scratch[:0], make([]byte, frameHeaderSize)...), r)
	if err != nil {
		return err
	}
	payload := frame[frameHeaderSize:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	l.scratch = frame[:0]
	// The extension is allocated per growth and dropped, never kept in
	// scratch: it reaches maxGrow, and growths are rare.
	write, end := frame, l.offset+int64(len(frame))
	if end > l.size {
		pad := min(max(l.offset, minGrow), maxGrow)
		write = make([]byte, (end+pad)&^(minGrow-1)-l.offset)
		copy(write, frame)
	}

	start := time.Now()
	n, werr := l.f.Write(write)
	if werr != nil || n < len(write) {
		// Partially written frame: roll the file back to the record
		// boundary so the in-memory view stays truthful. (A crash before
		// the rollback is fine — recovery truncates the torn frame.)
		if rerr := l.rewindTo(l.offset); rerr != nil {
			l.err = fmt.Errorf("wal: rollback after failed append: %w", rerr)
			return l.err
		}
		l.dirty = true
		if werr == nil {
			werr = io.ErrShortWrite
		}
		return fmt.Errorf("wal: appending record %d: %w", r.LSN, werr)
	}
	l.metrics.observeAppend(time.Since(start), len(frame))
	l.lastLSN = r.LSN
	l.dirty = true
	if end > l.size {
		l.size = l.offset + int64(n)
		if _, err := l.f.Seek(end, io.SeekStart); err != nil {
			l.err = fmt.Errorf("wal: seeking %s back from its extension: %w", l.path, err)
			return l.err
		}
	}
	l.offset = end
	if l.policy == SyncAlways && !l.deferSync {
		return l.syncLocked()
	}
	return nil
}

// ErrSyncFailed marks a GroupCommit whose closing fsync did not succeed:
// records staged during the batch — and any in-memory state the caller built
// on them — are not known durable. Test with errors.Is; callers that promise
// durability to their own clients must not acknowledge the batch when the
// returned error carries this marker.
var ErrSyncFailed = errors.New("wal: group-commit closing fsync failed")

// GroupCommit runs fn with the per-append SyncAlways fsync deferred, then
// issues at most one fsync covering every record fn appended — the batched
// ingest path's group commit. Records appended inside fn are staged exactly
// as usual (framed, CRC'd, LSN'd) but only become durable when GroupCommit's
// closing fsync returns, so callers must not acknowledge the batch until
// GroupCommit itself returns without an ErrSyncFailed-marked error. Under
// SyncInterval and SyncNever the closing fsync is skipped (those policies
// never promised per-append durability). fn runs without the log lock held:
// it is expected to call Append/TruncateTo, which take the lock per call.
//
// A non-nil error from fn is returned after the closing fsync still runs —
// records appended before the failure may have been applied by the caller
// and must reach the disk with the same guarantee as a full batch. When the
// closing fsync itself fails (or a mid-batch failure left the log in its
// sticky-error state with unflushed records), the returned error wraps
// ErrSyncFailed — in addition to fn's error, if fn also failed — so the
// caller can tell "a step was rejected, the applied prefix is durable" apart
// from "durability of the whole batch is unknown".
func (l *Log) GroupCommit(fn func() error) error {
	l.mu.Lock()
	if l.err != nil {
		l.mu.Unlock()
		return l.err
	}
	if l.deferSync {
		l.mu.Unlock()
		return fmt.Errorf("wal: nested GroupCommit on %s", l.path)
	}
	l.deferSync = true
	l.mu.Unlock()

	fnErr := fn()

	l.mu.Lock()
	defer l.mu.Unlock()
	l.deferSync = false
	var syncErr error
	if l.policy == SyncAlways && l.dirty {
		if l.err != nil {
			// The log went sticky-failed mid-batch with records still
			// unflushed; fsync semantics after a failure are undefined, so
			// the closing fsync is skipped — report instead of masking.
			syncErr = fmt.Errorf("%w: %w", ErrSyncFailed, l.err)
		} else if err := l.syncLocked(); err != nil {
			syncErr = fmt.Errorf("%w: %w", ErrSyncFailed, err)
		}
	}
	switch {
	case fnErr != nil && syncErr != nil:
		return fmt.Errorf("%w (and %w)", fnErr, syncErr)
	case fnErr != nil:
		return fnErr
	default:
		return syncErr
	}
}

// Sync forces an fsync regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		// Post-failure fsync semantics are undefined (the page cache may
		// have dropped the dirty pages), so the error is sticky: the log
		// refuses further appends rather than risk silent divergence.
		l.err = fmt.Errorf("wal: fsync %s: %w", l.path, err)
		return l.err
	}
	l.metrics.observeFsync(time.Since(start))
	l.dirty = false
	return nil
}

// ErrCompacted reports that records requested from the log were already
// folded into a checkpoint and reset away: the caller must fall back to a
// snapshot transfer instead of record replay.
var ErrCompacted = fmt.Errorf("wal: requested records were compacted into a checkpoint")

// RecordsFrom invokes fn, in LSN order, for every record in the log with an
// LSN strictly greater than from — the catch-up iterator a replication
// primary uses to re-ship a lagging replica's missing suffix. It returns
// ErrCompacted when the log no longer holds the full suffix (a checkpoint
// reset discarded it); a non-nil error from fn aborts the scan and is
// returned verbatim. The scan re-reads the file under the append lock, so it
// sees a record-boundary-consistent prefix and cannot interleave with
// appends.
func (l *Log) RecordsFrom(from uint64, fn func(Record) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if from >= l.lastLSN {
		return nil // nothing beyond from has ever been appended here
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal: seeking %s for catch-up scan: %w", l.path, err)
	}
	data := make([]byte, l.offset)
	if _, err := io.ReadFull(l.f, data); err != nil {
		return fmt.Errorf("wal: reading %s for catch-up scan: %w", l.path, err)
	}
	if _, err := l.f.Seek(l.offset, io.SeekStart); err != nil {
		l.err = fmt.Errorf("wal: restoring append cursor on %s: %w", l.path, err)
		return l.err
	}
	// The valid region was established at open/append time; frames here must
	// parse. The first surviving record tells us whether the suffix after
	// `from` is complete: primary logs assign contiguous LSNs, so a first
	// record beyond from+1 (or an empty log with lastLSN > from) means the
	// records in between were checkpointed away.
	first := true
	var scanErr error
	res, err := scanFrames(data[len(fileMagic):], func(r Record) error {
		if first {
			first = false
			if r.LSN > from+1 {
				scanErr = ErrCompacted
				return scanErr
			}
		}
		if r.LSN <= from {
			return nil
		}
		return fn(r)
	})
	if scanErr != nil {
		return scanErr
	}
	if err != nil {
		return err
	}
	if res.records == 0 {
		// Log is empty but lastLSN > from: everything was reset away.
		return ErrCompacted
	}
	return nil
}

// Offset returns the current end of the log in bytes (including the file
// magic).
func (l *Log) Offset() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.offset
}

// LastLSN returns the LSN of the most recent record (0 when the log is
// empty and no record was ever appended).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastLSN
}

// TruncateTo rolls the log back to a boundary previously captured with
// Offset/LastLSN — the engine's undo for an append whose apply was rejected.
// It is only valid between a failed apply and the next Append. The file is
// cut there, zero tail included, so no undone frame survives to replay.
func (l *Log) TruncateTo(offset int64, lastLSN uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if offset > l.offset {
		return fmt.Errorf("wal: TruncateTo(%d) beyond end %d", offset, l.offset)
	}
	if err := l.rewindTo(offset); err != nil {
		l.err = err
		return err
	}
	l.offset = offset
	l.lastLSN = lastLSN
	l.dirty = true
	if l.policy == SyncAlways && !l.deferSync {
		return l.syncLocked()
	}
	return nil
}

// Reset empties the log after a checkpoint made its records redundant,
// cutting the file back to its magic. The LSN counter is not reset — LSNs
// stay monotonic across resets so a checkpoint's recorded LSN unambiguously
// splits old records from new.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if err := l.rewindTo(int64(len(fileMagic))); err != nil {
		l.err = err
		return err
	}
	l.offset = int64(len(fileMagic))
	l.dirty = true
	return l.syncLocked()
}

// Rebase advances the LSN counter of an empty log to lsn, so the next append
// is assigned lsn+1. Boot uses it when a checkpoint's recorded LSN is ahead of
// the log (the process died between checkpoint publication and log reset, or
// the tail was torn away): numbering must continue above everything a
// checkpoint has ever folded in, or the next recovery would skip fresh
// records — and replication watermarks would run backwards across restarts.
func (l *Log) Rebase(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.offset != int64(len(fileMagic)) {
		return fmt.Errorf("wal: Rebase on a log holding records")
	}
	if lsn > l.lastLSN {
		l.lastLSN = lsn
	}
	return nil
}

// Close stops the background sync (if any), flushes, and closes the file.
//
//nnt:nonblocking shutdown path: waits only for the sync loop to observe stop, bounded by one in-flight fsync
func (l *Log) Close() error {
	if l.stop != nil {
		close(l.stop)
		l.wg.Wait()
		l.stop = nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var syncErr error
	if l.dirty && l.err == nil {
		syncErr = l.syncLocked()
	}
	closeErr := l.f.Close()
	if l.err == nil {
		l.err = fmt.Errorf("wal: log %s is closed", l.path)
	}
	if syncErr != nil {
		return syncErr
	}
	if closeErr != nil {
		return fmt.Errorf("wal: closing %s: %w", l.path, closeErr)
	}
	return nil
}

func (l *Log) syncLoop(interval time.Duration) {
	defer l.wg.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-ticker.C:
			l.mu.Lock()
			if l.dirty && l.err == nil {
				_ = l.syncLocked() // sticky error surfaces on the next Append
			}
			l.mu.Unlock()
		}
	}
}
