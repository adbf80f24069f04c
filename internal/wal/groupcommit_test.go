package wal

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"nntstream/internal/graph"
	"nntstream/internal/obs"
	"nntstream/internal/simdisk"
)

func openSyncAlways(t *testing.T, m *Metrics) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path, Options{Sync: SyncAlways, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	return l, path
}

func stepRecord(u, v int32) Record {
	return Record{Kind: KindStepAll, Changes: map[int64]graph.ChangeSet{
		0: {graph.InsertOp(graph.VertexID(u), 1, graph.VertexID(v), 2, 3)},
	}}
}

// TestGroupCommitSingleFsync is the SyncAlways durability contract: N
// appends inside one GroupCommit window cost exactly one fsync, and a record
// is durable once the window that appended it has closed. Appends outside a
// window cost no fsync and are not durable until a window closes after them.
func TestGroupCommitSingleFsync(t *testing.T) {
	disk := simdisk.New()
	m := NewMetrics(obs.NewRegistry())
	l, err := Open("wal.log", Options{Sync: SyncAlways, Metrics: m, FS: disk})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const n = 8
	before := m.FsyncSeconds.Count()
	err = l.GroupCommit(func() error {
		for i := int32(0); i < n; i++ {
			if _, err := l.Append(stepRecord(i, i+1)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("GroupCommit: %v", err)
	}
	if got := m.FsyncSeconds.Count() - before; got != 1 {
		t.Fatalf("fsyncs inside GroupCommit = %d; want 1", got)
	}

	before = m.FsyncSeconds.Count()
	appendAll(t, l, []Record{stepRecord(100, 101), stepRecord(101, 102)})
	if err := l.Withdraw(); err != nil {
		t.Fatal(err)
	}
	if got := m.FsyncSeconds.Count() - before; got != 0 {
		t.Fatalf("fsyncs for appends and a withdrawal outside a window = %d; want 0", got)
	}

	// A crash now keeps the closed window's n records and loses the one
	// appended outside a window.
	disk.Crash(0)
	if got := replayOn(t, disk, "wal.log"); len(got) != n {
		t.Fatalf("replayed %d records; want the window's %d", len(got), n)
	}
}

// TestGroupCommitEmptyWindow pins that a window with no appends performs no
// fsync once an earlier window has closed: the dirty flag, not the window
// itself, drives the closing sync.
func TestGroupCommitEmptyWindow(t *testing.T) {
	m := NewMetrics(obs.NewRegistry())
	l, _ := openSyncAlways(t, m)
	// Settle the freshly written file header so the window starts clean.
	commitAll(t, l, []Record{stepRecord(1, 2)})
	before := m.FsyncSeconds.Count()
	if err := l.GroupCommit(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := m.FsyncSeconds.Count() - before; got != 0 {
		t.Fatalf("fsyncs for empty window = %d; want 0", got)
	}
}

// TestGroupCommitNested rejects a window opened inside a window — silent
// nesting would let an inner "commit" return before its records are durable.
func TestGroupCommitNested(t *testing.T) {
	l, _ := openSyncAlways(t, nil)
	err := l.GroupCommit(func() error {
		return l.GroupCommit(func() error { return nil })
	})
	if err == nil || !strings.Contains(err.Error(), "nested GroupCommit") {
		t.Fatalf("nested GroupCommit error = %v; want nested-window rejection", err)
	}
	// The outer window closed; a fresh window works again.
	if err := l.GroupCommit(func() error { _, e := l.Append(stepRecord(1, 2)); return e }); err != nil {
		t.Fatalf("window after nested rejection: %v", err)
	}
}

// TestGroupCommitFnErrorStillSyncs: when fn fails midway, records it already
// appended are still fsynced before GroupCommit returns — the caller's error
// handling (Withdraw, partial-batch ack) sees a durable log, and
// the fn error is preserved over the sync outcome.
func TestGroupCommitFnErrorStillSyncs(t *testing.T) {
	m := NewMetrics(obs.NewRegistry())
	l, path := openSyncAlways(t, m)
	before := m.FsyncSeconds.Count()
	wantErr := "apply rejected"
	err := l.GroupCommit(func() error {
		if _, err := l.Append(stepRecord(1, 2)); err != nil {
			return err
		}
		return &testError{wantErr}
	})
	if err == nil || err.Error() != wantErr {
		t.Fatalf("GroupCommit = %v; want fn error %q", err, wantErr)
	}
	if got := m.FsyncSeconds.Count() - before; got != 1 {
		t.Fatalf("fsyncs after fn error = %d; want 1 (appended record still synced)", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, path); len(got) != 1 {
		t.Fatalf("replayed %d records; want 1", len(got))
	}
}

// TestGroupCommitTruncateDeferred: a Withdraw inside the window
// must not fsync on its own — the closing sync covers it (and the window may
// end with nothing to sync if the withdrawal undid the only append).
func TestGroupCommitTruncateDeferred(t *testing.T) {
	m := NewMetrics(obs.NewRegistry())
	l, _ := openSyncAlways(t, m)
	before := m.FsyncSeconds.Count()
	err := l.GroupCommit(func() error {
		if _, err := l.Append(stepRecord(1, 2)); err != nil {
			return err
		}
		return l.Withdraw()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.FsyncSeconds.Count() - before; got != 1 {
		t.Fatalf("fsyncs for append+withdraw window = %d; want 1", got)
	}
	if l.LastLSN() != 0 {
		t.Fatalf("LastLSN after withdrawal = %d; want 0", l.LastLSN())
	}
}

type testError struct{ msg string }

func (e *testError) Error() string { return e.msg }

// openFailSync opens a SyncAlways log on a simulated disk whose next fsync
// fails — the closing-fsync fault GroupCommit must surface rather than mask.
func openFailSync(t *testing.T) *Log {
	t.Helper()
	disk := simdisk.New()
	l, err := Open("wal.log", Options{Sync: SyncAlways, FS: disk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	disk.Fail(simdisk.Sync, 0)
	return l
}

// TestGroupCommitSyncFailureSurfaced: a failed closing fsync must reach the
// caller as ErrSyncFailed even though every append inside the window
// succeeded — records were staged but never made durable, so returning nil
// would let the caller acknowledge a batch the disk may not hold.
func TestGroupCommitSyncFailureSurfaced(t *testing.T) {
	l := openFailSync(t)
	err := l.GroupCommit(func() error {
		_, e := l.Append(stepRecord(1, 2))
		return e
	})
	if !errors.Is(err, ErrSyncFailed) {
		t.Fatalf("GroupCommit with failed closing fsync = %v; want ErrSyncFailed", err)
	}
}

// TestGroupCommitFnAndSyncFailure: when fn fails AND the closing fsync
// fails, the returned error must carry both — the fn error for the caller's
// per-step handling, and the ErrSyncFailed marker so the applied prefix is
// not promised as durable.
func TestGroupCommitFnAndSyncFailure(t *testing.T) {
	l := openFailSync(t)
	wantErr := "apply rejected"
	err := l.GroupCommit(func() error {
		if _, e := l.Append(stepRecord(1, 2)); e != nil {
			return e
		}
		return &testError{wantErr}
	})
	if !errors.Is(err, ErrSyncFailed) {
		t.Fatalf("GroupCommit = %v; want ErrSyncFailed in the chain", err)
	}
	if err == nil || !strings.Contains(err.Error(), wantErr) {
		t.Fatalf("GroupCommit = %v; want fn error %q preserved", err, wantErr)
	}
}

// TestGroupCommitPanicKeepsDurability: a panic inside the window (the
// evaluation pool re-raises a task's panic on its caller, and net/http
// recovers it) must not leave the window open. An open window defers every
// later SyncAlways fsync, so an append acknowledged after the panic would
// be lost by a crash, and every later GroupCommit would fail as nested.
func TestGroupCommitPanicKeepsDurability(t *testing.T) {
	disk := simdisk.New()
	l, err := Open("wal.log", Options{Sync: SyncAlways, FS: disk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("GroupCommit swallowed fn's panic")
			}
		}()
		_ = l.GroupCommit(func() error {
			if _, err := l.Append(stepRecord(1, 2)); err != nil {
				return err
			}
			panic("apply failed")
		})
	}()
	if lsn, err := l.Append(stepRecord(3, 4)); err == nil {
		disk.Crash(0)
		if got := replayOn(t, disk, "wal.log"); len(got) == 0 || got[len(got)-1].LSN != lsn {
			t.Fatalf("append %d acknowledged after a panicked window replays as %d records; want it durable", lsn, len(got))
		}
	}
	if err := l.GroupCommit(func() error { return nil }); err != nil && strings.Contains(err.Error(), "nested") {
		t.Fatalf("GroupCommit after a panicked window = %v; the window was left open", err)
	}
}

// openHinted opens a log with policy on a simulated disk, which records the
// writeback hints its files receive.
func openHinted(t *testing.T, policy SyncPolicy) (*Log, *simdisk.Disk) {
	t.Helper()
	disk := simdisk.New()
	l, err := Open("wal.log", Options{Sync: policy, FS: disk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	return l, disk
}

// TestGroupCommitHintsEachNewPage: inside a SyncAlways window an append
// hints the range it just wrote, frame and any zero extension, when it
// reaches a page the window has not hinted yet. The window's hints cover
// every page it wrote, no page ends two of them, and the next window hints
// its first append again, even in a page the last one hinted.
func TestGroupCommitHintsEachNewPage(t *testing.T) {
	l, disk := openHinted(t, SyncAlways)
	start := l.offset
	appends := 0
	err := l.GroupCommit(func() error {
		for l.offset < start+2*pageSize {
			if _, err := l.Append(stepRecord(1, 2)); err != nil {
				return err
			}
			appends++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	hints := disk.Hints()
	if len(hints) == 0 || hints[0].Off != start {
		t.Fatalf("window's hints %v; want the first to start at the first record, %d", hints, start)
	}
	if len(hints) >= appends {
		t.Fatalf("%d appends over 3 pages gave %d hints; want one per page", appends, len(hints))
	}
	covered := start
	for i, h := range hints {
		if h.Off > covered {
			t.Fatalf("hint %d starts at %d; bytes from %d were written but not hinted", i, h.Off, covered)
		}
		if i > 0 && (h.Off+h.N-1)/pageSize <= (covered-1)/pageSize {
			t.Fatalf("hint %d ends in page %d, which hint %d already ended in", i, (h.Off+h.N-1)/pageSize, i-1)
		}
		covered = h.Off + h.N
	}
	if covered < l.offset {
		t.Fatalf("the window's hints end at %d; want them to cover its records to %d", covered, l.offset)
	}

	before := len(hints)
	if err := l.GroupCommit(func() error { _, err := l.Append(stepRecord(3, 4)); return err }); err != nil {
		t.Fatal(err)
	}
	if got := len(disk.Hints()) - before; got != 1 {
		t.Fatalf("the next window's one append gave %d hints; want 1", got)
	}
}

// TestNoHintOutsideSyncAlwaysWindow: an append outside a window has no
// closing fsync to overlap, and SyncInterval and SyncNever promise no
// per-batch fsync, so none of them hints.
func TestNoHintOutsideSyncAlwaysWindow(t *testing.T) {
	l, disk := openHinted(t, SyncAlways)
	appendAll(t, l, testRecords())
	if err := l.Withdraw(); err != nil {
		t.Fatal(err)
	}
	if got := disk.Hints(); len(got) != 0 {
		t.Fatalf("appends outside a window gave %d hints; want 0", len(got))
	}
	for _, policy := range []SyncPolicy{SyncInterval, SyncNever} {
		l, disk := openHinted(t, policy)
		err := l.GroupCommit(func() error {
			_, err := l.Append(stepRecord(1, 2))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := disk.Hints(); len(got) != 0 {
			t.Fatalf("an append in a %v window gave %d hints; want 0", policy, len(got))
		}
	}
}

// TestHintMakesNothingDurable: a hint only starts a write. A power cut after
// the window's hints but before its closing fsync keeps none of the window's
// records, only those of the window closed before it, and one after
// GroupCommit returns keeps all of them.
func TestHintMakesNothingDurable(t *testing.T) {
	const n = 3
	batch := func(l *Log, crash func()) error {
		return l.GroupCommit(func() error {
			for i := int32(0); i < n; i++ {
				if _, err := l.Append(stepRecord(10+i, 11+i)); err != nil {
					return err
				}
			}
			crash()
			return nil
		})
	}

	l, disk := openHinted(t, SyncAlways)
	commitAll(t, l, testRecords()[:1])
	var got []Record
	if err := batch(l, func() {
		disk.Crash(0)
		got = replayOn(t, disk, "wal.log")
	}); err != nil {
		t.Fatal(err)
	}
	if len(disk.Hints()) == 0 {
		t.Fatal("window gave no hints")
	}
	if len(got) != 1 {
		t.Fatalf("a crash before the closing fsync replays %d records; want only the 1 of the window closed before it", len(got))
	}

	l, disk = openHinted(t, SyncAlways)
	commitAll(t, l, testRecords()[:1])
	if err := batch(l, func() {}); err != nil {
		t.Fatal(err)
	}
	disk.Crash(0)
	if got := replayOn(t, disk, "wal.log"); len(got) != 1+n {
		t.Fatalf("a crash after GroupCommit returned replays %d records; want %d", len(got), 1+n)
	}
}

// BenchmarkGroupCommitWithApply is one ingest commit on the OS file system:
// each op appends a step record, runs applyWork in place of the engine's
// apply, and closes the window with its fsync. Under SyncAlways the
// append's writeback hint lets the device write run during applyWork, which
// fsync-us/op shows.
func BenchmarkGroupCommitWithApply(b *testing.B) {
	m := NewMetrics(obs.NewRegistry())
	l, err := Open(filepath.Join(b.TempDir(), "wal.log"), Options{Sync: SyncAlways, Metrics: m})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	rec := stepRecord(1, 2)
	commit := func() error {
		if _, err := l.Append(rec); err != nil {
			return err
		}
		applyWork()
		return nil
	}
	count, sum := m.FsyncSeconds.Count(), m.FsyncSeconds.Sum()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.GroupCommit(commit); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric((m.FsyncSeconds.Sum()-sum)/float64(m.FsyncSeconds.Count()-count)*1e6, "fsync-us/op")
}

var workSink uint64

// applyWork is a fixed CPU loop, about 40 µs on a 2-vCPU Xeon VM. Unlike a
// spin on the clock, it takes longer when the I/O path steals its CPU.
func applyWork() {
	x := workSink
	for i := 0; i < 17_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 29
	}
	workSink = x
}

// TestGroupCommitWithdrawsNewestFirst: inside a window Withdraw undoes the
// window's appends one by one, newest first, down to the window's start —
// the durable engine's undo for the steps a filter rejected — and the
// closing fsync covers what is left. Outside a window only the last append
// can be withdrawn again.
func TestGroupCommitWithdrawsNewestFirst(t *testing.T) {
	m := NewMetrics(obs.NewRegistry())
	l, path := openSyncAlways(t, m)
	appendAll(t, l, []Record{stepRecord(1, 2)})
	err := l.GroupCommit(func() error {
		for i := int32(2); i < 5; i++ {
			if _, err := l.Append(stepRecord(i, i+1)); err != nil {
				return err
			}
		}
		for range 2 {
			if err := l.Withdraw(); err != nil {
				return err
			}
		}
		if l.LastLSN() != 2 {
			t.Fatalf("LastLSN after two withdrawals = %d; want 2", l.LastLSN())
		}
		if err := l.Withdraw(); err != nil {
			return err
		}
		if err := l.Withdraw(); err == nil {
			t.Fatal("a Withdraw reached past the window's start")
		}
		_, err := l.Append(stepRecord(5, 6))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Withdraw(); err != nil {
		t.Fatal(err)
	}
	if err := l.Withdraw(); err == nil {
		t.Fatal("a second Withdraw after the window succeeded")
	}
	l.Close()
	if got := replayAll(t, path); len(got) != 1 || got[0].LSN != 1 {
		t.Fatalf("replayed %+v; want only the record before the window", got)
	}
}
