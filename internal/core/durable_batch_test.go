package core

import (
	"errors"
	"testing"

	"nntstream/internal/graph"
	"nntstream/internal/obs"
	"nntstream/internal/wal"
)

// batchSteps builds n single-stream steps, each inserting one fresh edge
// whose labels cycle so the labelFilter's candidate set keeps shifting.
func batchSteps(sid StreamID, n int) []map[StreamID]graph.ChangeSet {
	batch := make([]map[StreamID]graph.ChangeSet, n)
	for i := 0; i < n; i++ {
		u := graph.VertexID(10 + i)
		batch[i] = map[StreamID]graph.ChangeSet{
			sid: {graph.InsertOp(u, graph.Label(i%3), u+1, graph.Label((i+1)%3), graph.Label(i%3))},
		}
	}
	return batch
}

// TestStepAllBatchEquivalence pins that a batch is semantically identical to
// the same steps applied sequentially: same candidate set, same LSNs, same
// recovered state — only the fsync count differs.
func TestStepAllBatchEquivalence(t *testing.T) {
	const n = 6
	dirBatch, dirSeq := t.TempDir(), t.TempDir()

	mBatch := wal.NewMetrics(obs.NewRegistry())
	batchEng := openDurable(t, dirBatch, DurableOptions{Metrics: mBatch})
	mSeq := wal.NewMetrics(obs.NewRegistry())
	seqEng := openDurable(t, dirSeq, DurableOptions{Metrics: mSeq})

	for _, d := range []*DurableEngine{batchEng, seqEng} {
		if _, err := d.AddQuery(lineGraphCore(3)); err != nil {
			t.Fatal(err)
		}
		if _, err := d.AddStream(lineGraphCore(2)); err != nil {
			t.Fatal(err)
		}
	}

	steps := batchSteps(0, n)

	fsyncsBefore := mBatch.FsyncSeconds.Count()
	applied, _, err := batchEng.StepAllBatch(steps)
	if err != nil || applied != n {
		t.Fatalf("StepAllBatch = (%d, _, %v); want (%d, _, nil)", applied, err, n)
	}
	if got := mBatch.FsyncSeconds.Count() - fsyncsBefore; got != 1 {
		t.Fatalf("batch of %d steps cost %d fsyncs; want 1 (group commit)", n, got)
	}

	fsyncsBefore = mSeq.FsyncSeconds.Count()
	for i, changes := range steps {
		if _, err := seqEng.StepAll(changes); err != nil {
			t.Fatalf("sequential step %d: %v", i, err)
		}
	}
	if got := mSeq.FsyncSeconds.Count() - fsyncsBefore; got != n {
		t.Fatalf("%d sequential steps cost %d fsyncs; want %d", n, got, n)
	}

	if !pairsEqual(batchEng.Candidates(), seqEng.Candidates()) {
		t.Fatalf("candidates diverged: batch %v vs sequential %v",
			batchEng.Candidates(), seqEng.Candidates())
	}
	if batchEng.LastLSN() != seqEng.LastLSN() {
		t.Fatalf("LSNs diverged: batch %d vs sequential %d", batchEng.LastLSN(), seqEng.LastLSN())
	}

	// Both recover to the same answers from their logs alone.
	if err := batchEng.Crash(); err != nil {
		t.Fatal(err)
	}
	recovered := openDurable(t, dirBatch, DurableOptions{})
	if !pairsEqual(recovered.Candidates(), seqEng.Candidates()) {
		t.Fatalf("recovered batch engine diverged: %v vs %v",
			recovered.Candidates(), seqEng.Candidates())
	}
}

// TestStepAllBatchMidBatchFailure: a step the engine rejects stops the batch
// there. Earlier steps stay applied and durable; the rejected step's WAL
// record is withdrawn, so recovery replays exactly the applied prefix.
func TestStepAllBatchMidBatchFailure(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, DurableOptions{})
	if _, err := d.AddQuery(lineGraphCore(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddStream(lineGraphCore(2)); err != nil {
		t.Fatal(err)
	}

	steps := batchSteps(0, 3)
	steps[1] = map[StreamID]graph.ChangeSet{
		99: {graph.InsertOp(1, 0, 2, 0, 0)}, // unknown stream: apply rejects
	}
	applied, _, err := d.StepAllBatch(steps)
	if !errors.Is(err, ErrUnknownStream) {
		t.Fatalf("err = %v; want ErrUnknownStream", err)
	}
	if applied != 1 {
		t.Fatalf("applied = %d; want 1 (step 0 only)", applied)
	}

	wantLSN := d.LastLSN()
	wantPairs := d.Candidates()
	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}
	recovered := openDurable(t, dir, DurableOptions{})
	if recovered.LastLSN() != wantLSN {
		t.Fatalf("recovered LSN = %d; want %d (rejected record withdrawn)", recovered.LastLSN(), wantLSN)
	}
	if !pairsEqual(recovered.Candidates(), wantPairs) {
		t.Fatalf("recovered candidates %v; want %v", recovered.Candidates(), wantPairs)
	}

	// The engine keeps working after a failed batch.
	if _, _, err := d.StepAllBatch(batchSteps(0, 1)); !errors.Is(err, errDurableClosed) {
		t.Fatalf("stepping a crashed engine = %v; want errDurableClosed", err)
	}
	if _, _, err := recovered.StepAllBatch(batchSteps(0, 2)[1:]); err != nil {
		t.Fatalf("batch after recovery: %v", err)
	}
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
	d := openDurable(t, t.TempDir(), DurableOptions{
		Metrics: m,
		OnCommit: func(r wal.Record) {
			shippedLSNs = append(shippedLSNs, r.LSN)
			fsyncsAtShip = append(fsyncsAtShip, m.FsyncSeconds.Count())
		},
	})
	if _, err := d.AddQuery(lineGraphCore(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddStream(lineGraphCore(2)); err != nil {
		t.Fatal(err)
	}

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
	d := openDurable(t, t.TempDir(), DurableOptions{
		OnCommit: func(r wal.Record) { shipped = append(shipped, r) },
	})
	if _, err := d.AddQuery(lineGraphCore(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddStream(lineGraphCore(2)); err != nil {
		t.Fatal(err)
	}

	shipped = nil
	steps := batchSteps(0, 3)
	steps[1] = map[StreamID]graph.ChangeSet{
		99: {graph.InsertOp(1, 0, 2, 0, 0)}, // unknown stream: apply rejects
	}
	applied, _, err := d.StepAllBatch(steps)
	if !errors.Is(err, ErrUnknownStream) || applied != 1 {
		t.Fatalf("StepAllBatch = (%d, _, %v); want (1, _, ErrUnknownStream)", applied, err)
	}
	if len(shipped) != 1 {
		t.Fatalf("OnCommit fired %d times after mid-batch failure; want 1 (applied prefix only)", len(shipped))
	}
	if shipped[0].LSN != d.LastLSN() {
		t.Fatalf("shipped LSN %d; want the applied step's %d", shipped[0].LSN, d.LastLSN())
	}
}

// failSyncLogFile makes the WAL file's Sync fail on demand, so a batch's
// closing fsync can be forced to fail after its appends succeeded.
type failSyncLogFile struct {
	wal.LogFile
	fail bool
}

func (f *failSyncLogFile) Sync() error {
	if f.fail {
		return errors.New("injected sync failure")
	}
	return f.LogFile.Sync()
}

// TestStepAllBatchSyncFailureShipsNothing: when the closing fsync fails the
// batch's durability is unknown, so no record may reach OnCommit — a replica
// must never apply state the primary can still lose — and the error carries
// the wal.ErrSyncFailed marker callers use to withhold acknowledgement.
func TestStepAllBatchSyncFailureShipsNothing(t *testing.T) {
	ff := &failSyncLogFile{}
	var shipped []wal.Record
	d := openDurable(t, t.TempDir(), DurableOptions{
		OnCommit: func(r wal.Record) { shipped = append(shipped, r) },
		WrapFile: func(f wal.LogFile) wal.LogFile {
			ff.LogFile = f
			return ff
		},
	})
	if _, err := d.AddQuery(lineGraphCore(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddStream(lineGraphCore(2)); err != nil {
		t.Fatal(err)
	}

	shipped = nil
	ff.fail = true
	_, _, err := d.StepAllBatch(batchSteps(0, 2))
	if !errors.Is(err, wal.ErrSyncFailed) {
		t.Fatalf("StepAllBatch with failed closing fsync = %v; want wal.ErrSyncFailed", err)
	}
	if len(shipped) != 0 {
		t.Fatalf("OnCommit fired %d times despite failed closing fsync; want 0", len(shipped))
	}
}

// TestStepAllBatchEmpty: an empty batch is a no-op success.
func TestStepAllBatchEmpty(t *testing.T) {
	d := openDurable(t, t.TempDir(), DurableOptions{})
	applied, pairs, err := d.StepAllBatch(nil)
	if err != nil || applied != 0 || pairs != 0 {
		t.Fatalf("empty batch = (%d, %d, %v); want (0, 0, nil)", applied, pairs, err)
	}
}

// lineGraphCore builds a path graph with n vertices, labels cycling 0..2.
func lineGraphCore(n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		if err := g.AddVertex(graph.VertexID(i), graph.Label(i%3)); err != nil {
			panic(err)
		}
	}
	for i := 1; i < n; i++ {
		if err := g.AddEdge(graph.VertexID(i-1), graph.VertexID(i), graph.Label(i%3)); err != nil {
			panic(err)
		}
	}
	return g
}
