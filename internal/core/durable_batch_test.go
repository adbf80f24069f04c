package core_test

import (
	"errors"
	"slices"
	"testing"

	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/join"
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
	firstLSN := d.AppliedLSN() + 1
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
	if shipped[0].LSN != d.AppliedLSN() {
		t.Fatalf("shipped LSN %d; want the applied step's %d", shipped[0].LSN, d.AppliedLSN())
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
	firstLSN := d.AppliedLSN() + 1
	applied, _, err := d.StepAllBatch(batchSteps(0, n))
	if err != nil || applied != n {
		t.Fatalf("StepAllBatch = (%d, _, %v); want (%d, _, nil)", applied, err, n)
	}
	if got := m.FsyncSeconds.Count() - base; got != 1 {
		t.Fatalf("batch of %d steps took %d fsyncs; want 1", n, got)
	}
	if got, want := d.AppliedLSN(), firstLSN+n-1; got != want {
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

	before := d.AppliedLSN()
	steps := batchSteps(0, 3)
	steps[1] = map[core.StreamID]graph.ChangeSet{
		99: {graph.InsertOp(1, 0, 2, 0, 0)}, // unknown stream: apply rejects
	}
	applied, _, err := d.StepAllBatch(steps)
	if !errors.Is(err, core.ErrUnknownStream) || applied != 1 {
		t.Fatalf("StepAllBatch = (%d, _, %v); want (1, _, ErrUnknownStream)", applied, err)
	}
	if got := d.AppliedLSN(); got != before+1 {
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

// panicFilter is an NL filter whose Apply panics while *armed is set.
type panicFilter struct {
	core.Filter
	armed *bool
}

func (f panicFilter) Apply(id core.StreamID, cs graph.ChangeSet) error {
	if *f.armed {
		panic("apply failed")
	}
	return f.Filter.Apply(id, cs)
}

// TestStepAllBatchPanicKeepsDurability: a step that panics inside the group
// commit (the evaluation pool re-raises a task's panic on its caller, and
// net/http recovers it, so the server keeps serving) must leave no mutation
// acknowledged unsynced and no commit buffered. Whatever the engine accepts
// afterwards is shipped at once and survives a crash.
func TestStepAllBatchPanicKeepsDurability(t *testing.T) {
	disk := simdisk.New()
	armed := false
	shipped := 0
	opts := core.DurableOptions{Fsync: wal.SyncAlways, FS: disk, OnCommit: func(wal.Record) { shipped++ }}
	factory := func() core.Filter { return panicFilter{join.NewNL(drillDepth), &armed} }
	d, err := core.OpenDurableEngine("data", factory, opts)
	if err != nil {
		t.Fatal(err)
	}
	register(t, d)
	armed = true
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("StepAllBatch swallowed the step's panic")
			}
		}()
		_, _, _ = d.StepAllBatch(batchSteps(0, 2))
	}()
	armed, shipped = false, 0

	if _, err := d.AddQuery(parseGraph(t, "v 0 0\nv 1 1\ne 0 1 1")); err == nil {
		if shipped != 1 {
			t.Fatalf("an AddQuery accepted after the panic shipped %d records; want 1", shipped)
		}
		disk.Crash(0)
		if err := d.Crash(); err != nil {
			t.Fatal(err)
		}
		d2, err := core.OpenDurableEngine("data", factory, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer d2.Crash()
		if q := d2.QueryCount(); q != 2 {
			t.Fatalf("after a crash the engine holds %d queries; want the 2 it accepted", q)
		}
		return
	}
	_ = d.Crash()
}

// failingSteps is an NL filter whose ApplySteps, while failAt ≥ 0, applies
// the steps before index failAt and fails that step.
type failingSteps struct {
	*join.NL
	failAt *int
}

func (f failingSteps) ApplySteps(steps []map[core.StreamID]graph.ChangeSet, pairs []int) (int, error) {
	k := *f.failAt
	if k < 0 || k >= len(steps) {
		return f.NL.ApplySteps(steps, pairs)
	}
	if n, err := f.NL.ApplySteps(steps[:k], pairs[:k]); err != nil {
		return n, err
	}
	return k, errors.New("filter fails the step")
}

// TestStepAllBatchFilterErrorWithdrawsRest pins core.StepApplier's error
// contract on the durable engine: a step the filter fails is rejected with
// every later step of the batch. Their records are withdrawn, newest first,
// and their canonical graphs restored, so the same steps apply again once
// the fault clears, and a crash recovers exactly what was applied.
func TestStepAllBatchFilterErrorWithdrawsRest(t *testing.T) {
	dir := t.TempDir()
	failAt := 1
	factory := func() core.Filter { return failingSteps{join.NewNL(drillDepth), &failAt} }
	d, err := core.OpenDurableEngine(dir, factory, core.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	register(t, d)
	before := d.AppliedLSN()
	steps := batchSteps(0, 3)
	applied, _, err := d.StepAllBatch(steps)
	if err == nil || applied != 1 {
		t.Fatalf("StepAllBatch = (%d, _, %v); want (1, _, the filter's error)", applied, err)
	}
	if got := d.AppliedLSN(); got != before+1 {
		t.Fatalf("AppliedLSN after the filter failed step 1 = %d; want %d", got, before+1)
	}
	failAt = -1
	if applied, _, err := d.StepAllBatch(steps[1:]); err != nil || applied != 2 {
		t.Fatalf("retried steps = (%d, _, %v); want (2, _, nil)", applied, err)
	}
	if got := d.AppliedLSN(); got != before+3 {
		t.Fatalf("AppliedLSN after the retry = %d; want %d", got, before+3)
	}
	want := d.Candidates()
	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}
	recovered, err := core.OpenDurableEngine(dir, factory, core.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got := recovered.Stats().Timestamps; got != 3 {
		t.Fatalf("recovered engine replayed %d steps; want 3", got)
	}
	if got := recovered.Candidates(); !slices.Equal(got, want) {
		t.Fatalf("recovered candidates %v; want %v", got, want)
	}
}
