package core_test

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"nntstream/internal/core"
	"nntstream/internal/fuzzsched/reference"
	"nntstream/internal/graph"
	"nntstream/internal/join"
	"nntstream/internal/obs"
	"nntstream/internal/simdisk"
	"nntstream/internal/wal"
)

// The durability drills below check what no op of the engine harness
// (FuzzEngineMatchesReference) reaches: the crash window between a
// checkpoint and the log reset, a stale checkpoint temp file, faults the
// simulated disk injects, a fresh data dir's first crash, the metrics, and
// replication. They run one scripted
// workload on NL engines and compare with the reference model.

// drillDepth is the depth of the drills' NL engines and reference model.
const drillDepth = 2

// mutator is the mutation surface the scripted workload drives: a
// DurableEngine, or the reference model through modelEngine.
type mutator interface {
	AddQuery(q *graph.Graph) (core.QueryID, error)
	RemoveQuery(id core.QueryID) error
	AddStream(g0 *graph.Graph) (core.StreamID, error)
	StepAll(changes map[core.StreamID]graph.ChangeSet) ([]core.Pair, error)
	Candidates() []core.Pair
}

// modelEngine runs the scripted workload on the reference model.
type modelEngine struct{ *reference.Model }

func (m modelEngine) AddQuery(q *graph.Graph) (core.QueryID, error) {
	return m.Model.AddQuery(q), nil
}

func (m modelEngine) AddStream(g *graph.Graph) (core.StreamID, error) {
	return m.Model.AddStream(g), nil
}

func (m modelEngine) StepAll(changes map[core.StreamID]graph.ChangeSet) ([]core.Pair, error) {
	return nil, m.Model.Step(changes)
}

// recoveryOps is the scripted workload; each op becomes exactly one WAL
// record, covering all four record kinds. testdata/sharded was written
// from it (see fixtureModel), so changing it invalidates the fixture.
func recoveryOps(t *testing.T) []func(m mutator) error {
	q0, q1, q2 := parseGraph(t, "v 0 0\nv 1 0\ne 0 1 1"), parseGraph(t, "v 0 0\nv 1 0\nv 2 0\ne 0 1 2\ne 1 2 3"), parseGraph(t, "v 0 0\nv 1 0\ne 0 1 4")
	s0, s1 := parseGraph(t, "v 0 0\nv 1 0\nv 2 0\ne 0 1 1\ne 1 2 2"), parseGraph(t, "v 0 0\nv 1 0\ne 0 1 3")
	return []func(m mutator) error{
		func(m mutator) error { _, err := m.AddQuery(q0); return err },
		func(m mutator) error { _, err := m.AddQuery(q1); return err },
		func(m mutator) error { _, err := m.AddStream(s0); return err },
		func(m mutator) error { _, err := m.AddStream(s1); return err },
		func(m mutator) error {
			_, err := m.StepAll(map[core.StreamID]graph.ChangeSet{
				0: {graph.InsertOp(2, 0, 3, 0, 3)},
				1: {graph.InsertOp(1, 0, 2, 0, 1)},
			})
			return err
		},
		func(m mutator) error { _, err := m.AddQuery(q2); return err }, // after the streams
		func(m mutator) error { return m.RemoveQuery(0) },
		func(m mutator) error {
			_, err := m.StepAll(map[core.StreamID]graph.ChangeSet{
				0: {graph.DeleteOp(1, 2), graph.InsertOp(3, 0, 4, 0, 4)},
			})
			return err
		},
	}
}

// expectedCandidates returns the reference candidates after each op
// prefix: expected[k] is the answer after the first k ops.
func expectedCandidates(t *testing.T) [][]core.Pair {
	t.Helper()
	m := modelEngine{reference.NewModel(drillDepth)}
	expected := [][]core.Pair{m.Candidates()}
	for _, op := range recoveryOps(t) {
		if err := op(m); err != nil {
			t.Fatalf("reference op: %v", err)
		}
		expected = append(expected, m.Candidates())
	}
	return expected
}

func openDurable(t *testing.T, dir string, opts core.DurableOptions) *core.DurableEngine {
	t.Helper()
	d, err := core.OpenDurableEngine(dir, func() core.Filter { return join.NewNL(drillDepth) }, opts)
	if err != nil {
		t.Fatalf("OpenDurableEngine(%s): %v", dir, err)
	}
	return d
}

// runAndCrash applies the full workload to a fresh durable engine and kills
// it without a checkpoint, returning the raw WAL bytes.
func runAndCrash(t *testing.T, dir string) []byte {
	t.Helper()
	d := openDurable(t, dir, core.DurableOptions{Fsync: wal.SyncAlways})
	for i, op := range recoveryOps(t) {
		if err := op(d); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if err := d.Crash(); err != nil {
		t.Fatalf("crash: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCrashImmediatelyAfterOpenDoesNotHang: stopping an engine whose
// checkpoint goroutine has not been scheduled yet must still stop that
// goroutine. The loop used to read its stop channel from a field stopLoop
// had already cleared, and then waited on a nil channel forever.
func TestCrashImmediatelyAfterOpenDoesNotHang(t *testing.T) {
	dir := t.TempDir()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ {
			d, err := core.OpenDurableEngine(dir, func() core.Filter { return join.NewNL(drillDepth) },
				core.DurableOptions{Fsync: wal.SyncNever, CheckpointInterval: time.Minute})
			if err != nil {
				t.Errorf("round %d: %v", i, err)
				return
			}
			stop := d.Crash
			if i%2 == 1 {
				stop = d.Close
			}
			if err := stop(); err != nil {
				t.Errorf("round %d: %v", i, err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Crash/Close right after OpenDurableEngine hung waiting for the checkpoint loop")
	}
}

// TestDurableStaleWALAfterCheckpoint reconstructs the crash window between
// checkpoint publication and log truncation: the checkpoint already covers
// every record still in the log, and replay must skip them all (replaying
// would fail on duplicate query IDs).
func TestDurableStaleWALAfterCheckpoint(t *testing.T) {
	preDir := t.TempDir()
	walBytes := runAndCrash(t, preDir) // wal.log with records 1..n, no checkpoint

	// Reopen the same dir and checkpoint: checkpoint.json now has WALSeq=n
	// and the log is reset.
	d := openDurable(t, preDir, core.DurableOptions{Fsync: wal.SyncAlways})
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}

	// Put the pre-checkpoint records back, as if the crash hit after the
	// checkpoint rename but before the log truncation.
	if err := os.WriteFile(filepath.Join(preDir, "wal.log"), walBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	d2 := openDurable(t, preDir, core.DurableOptions{Fsync: wal.SyncAlways})
	want := expectedCandidates(t)[len(recoveryOps(t))]
	if got := d2.Candidates(); !slices.Equal(got, want) {
		t.Fatalf("recovered candidates %v, want %v", got, want)
	}
	// The engine must keep accepting writes with LSNs above the checkpoint.
	if _, err := d2.StepAll(map[core.StreamID]graph.ChangeSet{0: {graph.InsertOp(9, 0, 10, 0, 2)}}); err != nil {
		t.Fatal(err)
	}
	want2 := d2.Candidates()
	if err := d2.Crash(); err != nil {
		t.Fatal(err)
	}
	d3 := openDurable(t, preDir, core.DurableOptions{Fsync: wal.SyncAlways})
	defer d3.Crash()
	if got := d3.Candidates(); !slices.Equal(got, want2) {
		t.Fatalf("post-window write lost: candidates %v, want %v", got, want2)
	}
}

// TestDurableStaleCheckpointTempIgnored: a crash mid-checkpoint leaves a
// temp file that boot must discard.
func TestDurableStaleCheckpointTempIgnored(t *testing.T) {
	dir := t.TempDir()
	runAndCrash(t, dir)
	if err := os.WriteFile(filepath.Join(dir, "checkpoint.json.tmp"), []byte("{half a check"), 0o644); err != nil {
		t.Fatal(err)
	}
	d := openDurable(t, dir, core.DurableOptions{Fsync: wal.SyncAlways})
	defer d.Crash()
	want := expectedCandidates(t)[len(recoveryOps(t))]
	if got := d.Candidates(); !slices.Equal(got, want) {
		t.Fatalf("recovered candidates %v, want %v", got, want)
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoint.json.tmp")); !os.IsNotExist(err) {
		t.Fatal("stale checkpoint temp file survived boot")
	}
}

// TestDurableFaultInjection drives the engine through an injected write
// fault: the failed operation surfaces the error, the log stays
// consistent, and an honest crash recovers exactly the acknowledged
// operations.
func TestDurableFaultInjection(t *testing.T) {
	disk := simdisk.New()
	opts := core.DurableOptions{Fsync: wal.SyncAlways, FS: disk}
	d := openDurable(t, "data", opts)
	ops := recoveryOps(t)
	mid := len(ops) / 2
	for _, op := range ops[:mid] {
		if err := op(d); err != nil {
			t.Fatal(err)
		}
	}
	// The next append tears 10 bytes in.
	disk.Fail(simdisk.Write, 10)
	if err := ops[mid](d); !errors.Is(err, simdisk.ErrInjected) {
		t.Fatalf("op through an injected write fault = %v; want the fault", err)
	}
	// The engine retries cleanly after the device recovers.
	for _, op := range ops[mid:] {
		if err := op(d); err != nil {
			t.Fatalf("op after the fault: %v", err)
		}
	}
	want := d.Candidates()
	disk.Crash(0)
	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}
	d2 := openDurable(t, "data", opts)
	defer d2.Crash()
	if got := d2.Candidates(); !slices.Equal(got, want) {
		t.Fatalf("recovered candidates %v, want %v", got, want)
	}
}

// TestFreshDataDirSurvivesCrash: the first acknowledged records of a new
// data dir survive an honest crash. wal.log is a new name in the directory,
// which a crash keeps only if the directory was synced after the file was
// created.
func TestFreshDataDirSurvivesCrash(t *testing.T) {
	disk := simdisk.New()
	opts := core.DurableOptions{Fsync: wal.SyncAlways, FS: disk}
	d := openDurable(t, "data", opts)
	if _, err := d.AddQuery(parseGraph(t, "v 0 0\nv 1 1\ne 0 1 0")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddStream(parseGraph(t, "v 0 0\nv 1 1\nv 2 2\ne 0 1 0\ne 1 2 0")); err != nil {
		t.Fatal(err)
	}
	disk.Crash(0)
	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}
	d2 := openDurable(t, "data", opts)
	defer d2.Crash()
	if q, s := d2.QueryCount(), d2.StreamCount(); q != 1 || s != 1 {
		t.Fatalf("after a crash the fresh data dir holds %d queries and %d streams; want 1 and 1", q, s)
	}
	if got := d2.Candidates(); len(got) != 1 {
		t.Fatalf("recovered candidates %v; want the one pair", got)
	}
}

// TestDurableMetrics wires a registry through the engine and checks the
// durability instruments move.
func TestDurableMetrics(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	metrics := wal.NewMetrics(reg)
	d := openDurable(t, dir, core.DurableOptions{Fsync: wal.SyncAlways, Metrics: metrics})
	for _, op := range recoveryOps(t) {
		if err := op(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}
	d2 := openDurable(t, dir, core.DurableOptions{Fsync: wal.SyncAlways, Metrics: metrics})
	defer d2.Crash()
	if n := metrics.AppendSeconds.Count(); n != int64(len(recoveryOps(t))) {
		t.Fatalf("records appended = %d, want %d", n, len(recoveryOps(t)))
	}
	if metrics.FsyncSeconds.Count() == 0 {
		t.Fatal("no fsyncs recorded under SyncAlways")
	}
	if got := metrics.Recoveries.Value(); got != 2 {
		t.Fatalf("recoveries = %d, want 2", got)
	}
	if metrics.CheckpointSeconds.Count() == 0 {
		t.Fatal("no checkpoints recorded")
	}
}
