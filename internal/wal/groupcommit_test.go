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

// TestGroupCommitSingleFsync is the batched-ingest durability contract: N
// appends inside one GroupCommit window cost exactly one fsync, while the
// same appends outside a window cost one each.
func TestGroupCommitSingleFsync(t *testing.T) {
	m := NewMetrics(obs.NewRegistry())
	l, path := openSyncAlways(t, m)

	const n = 8
	before := m.FsyncSeconds.Count()
	err := l.GroupCommit(func() error {
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
	for i := int32(0); i < n; i++ {
		if _, err := l.Append(stepRecord(100+i, 101+i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.FsyncSeconds.Count() - before; got != n {
		t.Fatalf("fsyncs outside GroupCommit = %d; want %d (SyncAlways per append)", got, n)
	}

	// All 2n records are durable and replayable.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, path); len(got) != 2*n {
		t.Fatalf("replayed %d records; want %d", len(got), 2*n)
	}
}

// TestGroupCommitEmptyWindow pins that a window with no appends performs no
// fsync: the dirty flag, not the window itself, drives the closing sync.
func TestGroupCommitEmptyWindow(t *testing.T) {
	m := NewMetrics(obs.NewRegistry())
	l, _ := openSyncAlways(t, m)
	// Settle the freshly written file header so the window starts clean.
	if _, err := l.Append(stepRecord(1, 2)); err != nil {
		t.Fatal(err)
	}
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
