package core

import (
	"errors"
	"path/filepath"
	"testing"

	"nntstream/internal/graph"
	"nntstream/internal/obs"
	"nntstream/internal/wal"
)

// openReplica opens a durable engine acting as a replica (no OnCommit; it
// receives records through ApplyRecord).
func openReplica(t *testing.T, dir string) *DurableEngine {
	t.Helper()
	return openDurable(t, dir, DurableOptions{Fsync: wal.SyncNever})
}

// TestReplicationShippedRecordsConverge runs the full scripted workload on a
// primary whose OnCommit ships every record straight into a replica, checking
// after every op that the replica's candidates match the never-crashed twin.
func TestReplicationShippedRecordsConverge(t *testing.T) {
	base := t.TempDir()
	replica := openReplica(t, filepath.Join(base, "replica"))
	defer replica.Close()
	var shipped []wal.Record
	primary := openDurable(t, filepath.Join(base, "primary"), DurableOptions{
		Fsync: wal.SyncNever,
		OnCommit: func(r wal.Record) {
			shipped = append(shipped, r)
			if err := replica.ApplyRecord(r); err != nil {
				t.Errorf("ApplyRecord(LSN %d): %v", r.LSN, err)
			}
		},
	})
	defer primary.Close()

	expected := expectedCandidates(t)
	for i, op := range recoveryOps(t) {
		if err := op(primary); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if got := replica.Candidates(); !pairsEqual(got, expected[i+1]) {
			t.Fatalf("after op %d: replica candidates %v, want %v", i, got, expected[i+1])
		}
	}
	if p, r := primary.AppliedLSN(), replica.AppliedLSN(); p != r {
		t.Fatalf("applied LSN diverged: primary %d, replica %d", p, r)
	}
	// Re-shipping the whole history (a retry storm) is a no-op.
	for _, r := range shipped {
		if err := replica.ApplyRecord(r); err != nil {
			t.Fatalf("re-ship LSN %d: %v", r.LSN, err)
		}
	}
	if got := replica.Candidates(); !pairsEqual(got, expected[len(expected)-1]) {
		t.Fatal("re-ship changed replica state")
	}
}

// TestReplicationGapAndCatchUp drops a span of shipped records, verifies the
// replica refuses the out-of-order record with ErrReplicaGap, and closes the
// gap with the primary's RecordsSince feed.
func TestReplicationGapAndCatchUp(t *testing.T) {
	base := t.TempDir()
	replica := openReplica(t, filepath.Join(base, "replica"))
	defer replica.Close()
	ops := recoveryOps(t)
	lost := 3 // ship ops[:lost], drop the rest on the floor
	var n int
	primary := openDurable(t, filepath.Join(base, "primary"), DurableOptions{
		Fsync: wal.SyncNever,
		OnCommit: func(r wal.Record) {
			n++
			if n > lost {
				return // simulated network loss
			}
			if err := replica.ApplyRecord(r); err != nil {
				t.Errorf("ApplyRecord(LSN %d): %v", r.LSN, err)
			}
		},
	})
	defer primary.Close()
	for i, op := range ops {
		if err := op(primary); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}

	// A record past the gap is refused, and refused idempotently.
	head, err := primary.RecordsSince(primary.AppliedLSN() - 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := replica.ApplyRecord(head[len(head)-1]); !errors.Is(err, ErrReplicaGap) {
			t.Fatalf("ApplyRecord over gap = %v, want ErrReplicaGap", err)
		}
	}
	if replica.AppliedLSN() != uint64(lost) {
		t.Fatalf("replica applied %d after refused ship, want %d", replica.AppliedLSN(), lost)
	}

	// Catch-up: replay everything past the replica's watermark.
	tail, err := primary.RecordsSince(replica.AppliedLSN())
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != len(ops)-lost {
		t.Fatalf("RecordsSince returned %d records, want %d", len(tail), len(ops)-lost)
	}
	for _, r := range tail {
		if err := replica.ApplyRecord(r); err != nil {
			t.Fatalf("catch-up LSN %d: %v", r.LSN, err)
		}
	}
	want := expectedCandidates(t)
	if got := replica.Candidates(); !pairsEqual(got, want[len(want)-1]) {
		t.Fatalf("after catch-up: replica candidates %v, want %v", got, want[len(want)-1])
	}
	if p, r := primary.AppliedLSN(), replica.AppliedLSN(); p != r {
		t.Fatalf("applied LSN diverged after catch-up: primary %d, replica %d", p, r)
	}
}

// TestReplicationSnapshotBootstrap checkpoints the primary mid-workload (so
// the WAL prefix is compacted away), then bootstraps a fresh replica from
// SnapshotBytes+InstallSnapshot and streams the remaining records into it.
func TestReplicationSnapshotBootstrap(t *testing.T) {
	base := t.TempDir()
	ops := recoveryOps(t)
	cut := 4
	var late []wal.Record
	primary := openDurable(t, filepath.Join(base, "primary"), DurableOptions{
		Fsync: wal.SyncNever,
		OnCommit: func(r wal.Record) {
			if r.LSN > uint64(cut) {
				late = append(late, r)
			}
		},
	})
	defer primary.Close()
	for i, op := range ops[:cut] {
		if err := op(primary); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if err := primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snap, err := primary.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range ops[cut:] {
		if err := op(primary); err != nil {
			t.Fatalf("op %d: %v", cut+i, err)
		}
	}

	// The checkpoint compacted records 1..cut: a from-zero replica cannot be
	// fed from the log.
	if _, err := primary.RecordsSince(0); !errors.Is(err, wal.ErrCompacted) {
		t.Fatalf("RecordsSince(0) after checkpoint = %v, want ErrCompacted", err)
	}

	replDir := filepath.Join(base, "replica")
	if err := InstallSnapshot(replDir, snap); err != nil {
		t.Fatalf("InstallSnapshot: %v", err)
	}
	replica := openReplica(t, replDir)
	defer replica.Close()
	if replica.AppliedLSN() != uint64(cut) {
		t.Fatalf("bootstrapped replica applied %d, want %d", replica.AppliedLSN(), cut)
	}
	for _, r := range late {
		if err := replica.ApplyRecord(r); err != nil {
			t.Fatalf("post-bootstrap ship LSN %d: %v", r.LSN, err)
		}
	}
	want := expectedCandidates(t)
	if got := replica.Candidates(); !pairsEqual(got, want[len(want)-1]) {
		t.Fatalf("bootstrapped replica candidates %v, want %v", got, want[len(want)-1])
	}

	// InstallSnapshot rejects garbage rather than planting an unbootable dir.
	if err := InstallSnapshot(filepath.Join(base, "bad"), []byte("not a snapshot")); err == nil {
		t.Fatal("InstallSnapshot accepted garbage")
	}
}

// TestReplicationPromotedReplicaShips verifies the failover contract: a
// replica built purely from shipped records can be reopened as a primary (its
// own WAL holds the history) and continue accepting writes.
func TestReplicationPromotedReplicaShips(t *testing.T) {
	base := t.TempDir()
	replDir := filepath.Join(base, "replica")
	replica := openReplica(t, replDir)
	primary := openDurable(t, filepath.Join(base, "primary"), DurableOptions{
		Fsync: wal.SyncNever,
		OnCommit: func(r wal.Record) {
			if err := replica.ApplyRecord(r); err != nil {
				t.Errorf("ApplyRecord(LSN %d): %v", r.LSN, err)
			}
		},
	})
	ops := recoveryOps(t)
	for i, op := range ops[:5] {
		if err := op(primary); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	// Primary dies hard; replica is promoted in place (no reopen needed) and
	// serves the remaining writes itself.
	if err := primary.Crash(); err != nil {
		t.Fatal(err)
	}
	for i, op := range ops[5:] {
		if err := op(replica); err != nil {
			t.Fatalf("post-promotion op %d: %v", 5+i, err)
		}
	}
	want := expectedCandidates(t)
	if got := replica.Candidates(); !pairsEqual(got, want[len(want)-1]) {
		t.Fatalf("promoted replica candidates %v, want %v", got, want[len(want)-1])
	}
	// And its own durability holds: crash the promoted node and recover it.
	if err := replica.Crash(); err != nil {
		t.Fatal(err)
	}
	recovered := openReplica(t, replDir)
	defer recovered.Close()
	if got := recovered.Candidates(); !pairsEqual(got, want[len(want)-1]) {
		t.Fatalf("recovered promoted replica candidates %v, want %v", got, want[len(want)-1])
	}
}

// TestCheckpointFaultLeavesRecoverableState injects a failure into each stage
// of the checkpoint's atomic file replacement and verifies the failure is
// contained: the error is surfaced and counted, the WAL is not reset, the
// engine keeps accepting writes, and a crash right after still recovers to
// the twin's state from the previous checkpoint + intact log.
func TestCheckpointFaultLeavesRecoverableState(t *testing.T) {
	for _, stage := range []wal.AtomicStage{wal.StageWrite, wal.StageSync, wal.StageRename} {
		t.Run(stage.String(), func(t *testing.T) {
			dir := t.TempDir()
			fault := &wal.AtomicFault{}
			metrics := wal.NewMetrics(obs.NewRegistry())
			d := openDurable(t, dir, DurableOptions{
				Fsync:           wal.SyncAlways,
				Metrics:         metrics,
				CheckpointFault: fault,
			})
			ops := recoveryOps(t)
			split := 5
			for i, op := range ops[:split] {
				if err := op(d); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
			// An early checkpoint gives the failed attempt a predecessor to
			// preserve.
			if err := d.Checkpoint(); err != nil {
				t.Fatalf("baseline checkpoint: %v", err)
			}
			for i, op := range ops[split:] {
				if err := op(d); err != nil {
					t.Fatalf("op %d: %v", split+i, err)
				}
			}

			fault.Arm(stage)
			lsnBefore := d.LastLSN()
			if err := d.Checkpoint(); err == nil {
				t.Fatal("checkpoint with injected fault succeeded")
			}
			if fault.Tripped() != 1 {
				t.Fatalf("fault tripped %d times, want 1", fault.Tripped())
			}
			if got := metrics.CheckpointFailures.Value(); got != 1 {
				t.Fatalf("CheckpointFailures = %d, want 1", got)
			}
			if d.LastLSN() != lsnBefore {
				t.Fatalf("failed checkpoint moved the log: LastLSN %d -> %d", lsnBefore, d.LastLSN())
			}

			// The engine shrugs it off: writes still work (a query added and
			// removed again leaves the candidate set unchanged), and a hard
			// kill recovers everything from the old checkpoint + WAL suffix.
			q := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 0}, [][3]int{{0, 1, 9}})
			qid, err := d.AddQuery(q)
			if err != nil {
				t.Fatalf("write after failed checkpoint: %v", err)
			}
			if err := d.RemoveQuery(qid); err != nil {
				t.Fatalf("write after failed checkpoint: %v", err)
			}
			if err := d.Crash(); err != nil {
				t.Fatal(err)
			}
			recovered := openDurable(t, dir, DurableOptions{Fsync: wal.SyncNever})
			defer recovered.Close()
			want := expectedCandidates(t)
			if got := recovered.Candidates(); !pairsEqual(got, want[len(want)-1]) {
				t.Fatalf("recovered candidates %v, want %v", got, want[len(want)-1])
			}
			// The next checkpoint (fault disarmed) succeeds.
			if err := recovered.Checkpoint(); err != nil {
				t.Fatalf("checkpoint after disarm: %v", err)
			}
		})
	}
}
