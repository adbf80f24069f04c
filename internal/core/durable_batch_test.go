package core_test

import (
	"errors"
	"slices"
	"testing"

	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/obs"
	"nntstream/internal/simdisk"
	"nntstream/internal/wal"
)

// batchSteps builds n single-stream steps, each inserting one fresh edge
// whose labels cycle.
func batchSteps(sid core.StreamID, n int) []map[core.StreamID]graph.ChangeSet {
	batch := make([]map[core.StreamID]graph.ChangeSet, n)
	for i := 0; i < n; i++ {
		u := graph.VertexID(10 + i)
		batch[i] = map[core.StreamID]graph.ChangeSet{
			sid: {graph.InsertOp(u, graph.Label(i%3), u+1, graph.Label((i+1)%3), graph.Label(i%3))},
		}
	}
	return batch
}

// TestStepAllBatchOnCommitAfterFsync pins the durable-before-ship ordering:
// OnCommit notifications for a batch fire only after the group commit's
// closing fsync, in commit order with contiguous LSNs — never per step
// inside the window, where a crash could still lose what was shipped.
func TestStepAllBatchOnCommitAfterFsync(t *testing.T) {
	const n = 3
	m := wal.NewMetrics(obs.NewRegistry())
	var shippedLSNs []uint64
	var fsyncsAtShip []int64
	d := openDurable(t, t.TempDir(), core.DurableOptions{
		Metrics: m,
		OnCommit: func(r wal.Record) {
			shippedLSNs = append(shippedLSNs, r.LSN)
			fsyncsAtShip = append(fsyncsAtShip, m.FsyncSeconds.Count())
		},
	})
	register(t, d)

	shippedLSNs, fsyncsAtShip = nil, nil
	base := m.FsyncSeconds.Count()
	firstLSN := d.LastLSN() + 1
	applied, _, err := d.StepAllBatch(batchSteps(0, n))
	if err != nil || applied != n {
		t.Fatalf("StepAllBatch = (%d, _, %v); want (%d, _, nil)", applied, err, n)
	}
	if len(shippedLSNs) != n {
		t.Fatalf("OnCommit fired %d times; want %d", len(shippedLSNs), n)
	}
	for i, lsn := range shippedLSNs {
		if lsn != firstLSN+uint64(i) {
			t.Fatalf("shipped LSNs %v; want contiguous from %d", shippedLSNs, firstLSN)
		}
		if fsyncsAtShip[i] != base+1 {
			t.Fatalf("OnCommit %d observed %d batch fsyncs; want 1 (ship only after the closing fsync)",
				i, fsyncsAtShip[i]-base)
		}
	}
}

// TestStepAllBatchMidBatchFailureShipsPrefix: a per-step rejection still
// ships the applied prefix (the closing fsync ran; those records are
// durable), and ships nothing for the withdrawn step — exactly what N
// sequential StepAll calls would have shipped.
func TestStepAllBatchMidBatchFailureShipsPrefix(t *testing.T) {
	var shipped []wal.Record
	d := openDurable(t, t.TempDir(), core.DurableOptions{
		OnCommit: func(r wal.Record) { shipped = append(shipped, r) },
	})
	register(t, d)

	shipped = nil
	steps := batchSteps(0, 3)
	steps[1] = map[core.StreamID]graph.ChangeSet{
		99: {graph.InsertOp(1, 0, 2, 0, 0)}, // unknown stream: apply rejects
	}
	applied, _, err := d.StepAllBatch(steps)
	if !errors.Is(err, core.ErrUnknownStream) || applied != 1 {
		t.Fatalf("StepAllBatch = (%d, _, %v); want (1, _, ErrUnknownStream)", applied, err)
	}
	if len(shipped) != 1 {
		t.Fatalf("OnCommit fired %d times after mid-batch failure; want 1 (applied prefix only)", len(shipped))
	}
	if shipped[0].LSN != d.LastLSN() {
		t.Fatalf("shipped LSN %d; want the applied step's %d", shipped[0].LSN, d.LastLSN())
	}
}

// TestStepAllBatchSyncFailureShipsNothing: when the closing fsync fails the
// batch's durability is unknown, so no record may reach OnCommit — a replica
// must never apply state the primary can still lose — and the error carries
// the wal.ErrSyncFailed marker callers use to withhold acknowledgement.
func TestStepAllBatchSyncFailureShipsNothing(t *testing.T) {
	disk := simdisk.New()
	var shipped []wal.Record
	d := openDurable(t, "data", core.DurableOptions{
		OnCommit: func(r wal.Record) { shipped = append(shipped, r) },
		FS:       disk,
	})
	register(t, d)

	shipped = nil
	disk.Fail(simdisk.Sync, 0)
	_, _, err := d.StepAllBatch(batchSteps(0, 2))
	if !errors.Is(err, wal.ErrSyncFailed) {
		t.Fatalf("StepAllBatch with failed closing fsync = %v; want wal.ErrSyncFailed", err)
	}
	if len(shipped) != 0 {
		t.Fatalf("OnCommit fired %d times despite failed closing fsync; want 0", len(shipped))
	}
}

// TestStepAllBatchOneFsyncPerBatch pins the group commit: a batch of n steps
// appends n records with contiguous LSNs under one closing fsync, and a crash
// right after the batch returns recovers every step of it.
func TestStepAllBatchOneFsyncPerBatch(t *testing.T) {
	const n = 3
	dir := t.TempDir()
	m := wal.NewMetrics(obs.NewRegistry())
	d := openDurable(t, dir, core.DurableOptions{Metrics: m})
	register(t, d)

	base := m.FsyncSeconds.Count()
	firstLSN := d.LastLSN() + 1
	applied, _, err := d.StepAllBatch(batchSteps(0, n))
	if err != nil || applied != n {
		t.Fatalf("StepAllBatch = (%d, _, %v); want (%d, _, nil)", applied, err, n)
	}
	if got := m.FsyncSeconds.Count() - base; got != 1 {
		t.Fatalf("batch of %d steps took %d fsyncs; want 1", n, got)
	}
	if got, want := d.LastLSN(), firstLSN+n-1; got != want {
		t.Fatalf("LastLSN after batch = %d; want %d", got, want)
	}
	want := d.Candidates()
	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}
	recovered := openDurable(t, dir, core.DurableOptions{})
	defer recovered.Close()
	if got := recovered.AppliedLSN(); got != firstLSN+n-1 {
		t.Fatalf("recovered applied LSN %d; want %d", got, firstLSN+n-1)
	}
	if got := recovered.Candidates(); !slices.Equal(got, want) {
		t.Fatalf("recovered candidates %v; want %v", got, want)
	}
}

// TestStepAllBatchMidBatchFailureLogsPrefix: a per-step rejection keeps the
// applied prefix in the log and withdraws the rejected step's record, so
// LastLSN is the applied step's LSN and a crash recovers exactly the prefix
// — what N sequential StepAll calls would have left.
func TestStepAllBatchMidBatchFailureLogsPrefix(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, core.DurableOptions{})
	register(t, d)

	before := d.LastLSN()
	steps := batchSteps(0, 3)
	steps[1] = map[core.StreamID]graph.ChangeSet{
		99: {graph.InsertOp(1, 0, 2, 0, 0)}, // unknown stream: apply rejects
	}
	applied, _, err := d.StepAllBatch(steps)
	if !errors.Is(err, core.ErrUnknownStream) || applied != 1 {
		t.Fatalf("StepAllBatch = (%d, _, %v); want (1, _, ErrUnknownStream)", applied, err)
	}
	if got := d.LastLSN(); got != before+1 {
		t.Fatalf("LastLSN after mid-batch failure = %d; want the applied step's %d", got, before+1)
	}
	if got := d.AppliedLSN(); got != before+1 {
		t.Fatalf("AppliedLSN after mid-batch failure = %d; want %d", got, before+1)
	}
	want := d.Candidates()
	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}
	recovered := openDurable(t, dir, core.DurableOptions{})
	defer recovered.Close()
	if got := recovered.AppliedLSN(); got != before+1 {
		t.Fatalf("recovered applied LSN %d; want %d (the applied prefix only)", got, before+1)
	}
	if got := recovered.Stats().Timestamps; got != 1 {
		t.Fatalf("recovered engine replayed %d steps; want 1", got)
	}
	if got := recovered.Candidates(); !slices.Equal(got, want) {
		t.Fatalf("recovered candidates %v; want %v", got, want)
	}
}

// TestStepAllBatchEmpty: an empty batch is a no-op success, and a crashed
// engine refuses every batch.
func TestStepAllBatchEmpty(t *testing.T) {
	d := openDurable(t, t.TempDir(), core.DurableOptions{})
	applied, pairs, err := d.StepAllBatch(nil)
	if err != nil || applied != 0 || pairs != 0 {
		t.Fatalf("empty batch = (%d, %d, %v); want (0, 0, nil)", applied, pairs, err)
	}
	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.StepAllBatch(nil); err == nil {
		t.Fatal("a crashed engine took a batch")
	}
}

// register adds the query and the stream the batch drills step: a path
// on three vertices and one on two.
func register(t *testing.T, d *core.DurableEngine) {
	t.Helper()
	if _, err := d.AddQuery(parseGraph(t, "v 0 0\nv 1 1\nv 2 2\ne 0 1 1\ne 1 2 2")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddStream(parseGraph(t, "v 0 0\nv 1 1\ne 0 1 1")); err != nil {
		t.Fatal(err)
	}
}
