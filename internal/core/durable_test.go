package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
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

// TestCrashImmediatelyAfterOpenDoesNotHang: stopping an engine right after
// it opened must return. A checkpoint goroutine once hung here, waiting on a
// stop channel its stopper had already cleared; the checkpoint timer that
// replaced it is stopped under the engine's lock, and a callback that fired
// anyway finds it disarmed there.
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

// waitFor polls cond until it holds, failing the test after a deadline.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestIdleEngineDoesNothing: the checkpoint and interval-fsync timers are
// armed only while there is work for them. A commit's records are folded
// within a few checkpoint intervals; after that an idle engine writes no
// checkpoint, issues no fsync and holds no goroutine.
func TestIdleEngineDoesNothing(t *testing.T) {
	const every = 5 * time.Millisecond
	metrics := wal.NewMetrics(obs.NewRegistry())
	before := runtime.NumGoroutine()
	d := openDurable(t, "data", core.DurableOptions{Fsync: wal.SyncInterval, FsyncInterval: 2 * time.Millisecond,
		CheckpointInterval: every, Metrics: metrics, FS: simdisk.New()})
	defer d.Crash()
	if _, err := d.AddQuery(parseGraph(t, "v 0 0\nv 1 0\ne 0 1 1")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the commit's checkpoint", func() bool {
		_, err := d.RecordsSince(0)
		return errors.Is(err, wal.ErrCompacted)
	})
	checkpoints, fsyncs := metrics.CheckpointSeconds.Count(), metrics.FsyncSeconds.Count()
	time.Sleep(10 * every)
	if c, f := metrics.CheckpointSeconds.Count(), metrics.FsyncSeconds.Count(); c != checkpoints || f != fsyncs {
		t.Fatalf("idle for %v: checkpoints %d -> %d, fsyncs %d -> %d; want no change", 10*every, checkpoints, c, fsyncs, f)
	}
	waitFor(t, fmt.Sprintf("the %d goroutines before Open", before), func() bool { return runtime.NumGoroutine() <= before })
}

// TestCheckpointTimerArming: boot arms the checkpoint timer when replay
// applied records no checkpoint has folded, and a timed checkpoint that
// fails re-arms it.
func TestCheckpointTimerArming(t *testing.T) {
	q := parseGraph(t, "v 0 0\nv 1 0\ne 0 1 1")
	t.Run("boot", func(t *testing.T) {
		disk := simdisk.New()
		d := openDurable(t, "data", core.DurableOptions{FS: disk})
		if _, err := d.AddQuery(q); err != nil {
			t.Fatal(err)
		}
		if err := d.Crash(); err != nil {
			t.Fatal(err)
		}
		metrics := wal.NewMetrics(obs.NewRegistry())
		d = openDurable(t, "data", core.DurableOptions{CheckpointInterval: time.Millisecond, Metrics: metrics, FS: disk})
		defer d.Crash()
		waitFor(t, "a checkpoint of the replayed record", func() bool { return metrics.CheckpointSeconds.Count() > 0 })
	})
	t.Run("retry", func(t *testing.T) {
		disk := simdisk.New()
		metrics := wal.NewMetrics(obs.NewRegistry())
		d := openDurable(t, "data", core.DurableOptions{CheckpointInterval: time.Millisecond, Metrics: metrics, FS: disk})
		defer d.Crash()
		disk.Fail(simdisk.Rename, 0)
		if _, err := d.AddQuery(q); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "a checkpoint after the failed one", func() bool { return metrics.CheckpointSeconds.Count() > 0 })
		if n := metrics.CheckpointFailures.Value(); n != 1 {
			t.Fatalf("checkpoint failures = %d, want 1", n)
		}
	})
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

// rejectedTailLog writes, through the WAL alone, a data dir whose log adds
// a query and then holds a RemoveQuery the engine rejects (query 99 was
// never added), followed by more: the debris of a crash that caught the
// rejected record on the disk before its withdrawal was.
func rejectedTailLog(t *testing.T, more ...wal.Record) string {
	t.Helper()
	return logDir(t, append([]wal.Record{
		{Kind: wal.KindAddQuery, ID: 0, Graph: parseGraph(t, "v 0 0\nv 1 1\ne 0 1 0")},
		{Kind: wal.KindRemoveQuery, ID: 99},
	}, more...)...)
}

// logDir writes recs through the WAL alone into a fresh data dir.
func logDir(t *testing.T, recs ...wal.Record) string {
	t.Helper()
	dir := t.TempDir()
	l, err := wal.Open(filepath.Join(dir, "wal.log"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestRecoverCutsRejectedTailRecord: a rejected record that is the log's
// last frame ends the valid prefix. Boot cuts it and counts it like a torn
// tail, keeps the query before it, and numbers the next write in its place.
func TestRecoverCutsRejectedTailRecord(t *testing.T) {
	dir := rejectedTailLog(t)
	m := wal.NewMetrics(obs.NewRegistry())
	d := openDurable(t, dir, core.DurableOptions{Metrics: m})
	if q, lsn := d.QueryCount(), d.AppliedLSN(); q != 1 || lsn != 1 {
		t.Fatalf("booted with %d queries at applied LSN %d; want 1 and 1", q, lsn)
	}
	if m.TornTruncations.Value() != 1 || m.TornBytes.Value() == 0 {
		t.Fatalf("torn truncations %d, torn bytes %d; want the rejected record cut and counted",
			m.TornTruncations.Value(), m.TornBytes.Value())
	}
	if err := d.RemoveQuery(0); err != nil {
		t.Fatal(err)
	}
	if lsn := d.AppliedLSN(); lsn != 2 {
		t.Fatalf("the next write took LSN %d; want 2, the cut record's", lsn)
	}
	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}
	d2 := openDurable(t, dir, core.DurableOptions{})
	defer d2.Crash()
	if q, lsn := d2.QueryCount(), d2.AppliedLSN(); q != 0 || lsn != 2 {
		t.Fatalf("rebooted with %d queries at applied LSN %d; want 0 and 2", q, lsn)
	}
}

// TestRecoverRejectsRejectedRecordBeforeValidFrame: a rejected record with
// a valid frame after it is no crash debris, and boot refuses the log.
func TestRecoverRejectsRejectedRecordBeforeValidFrame(t *testing.T) {
	dir := rejectedTailLog(t, wal.Record{Kind: wal.KindAddStream, ID: 0, Graph: parseGraph(t, "v 0 0\nv 1 1\ne 0 1 0")})
	d, err := core.OpenDurableEngine(dir, func() core.Filter { return join.NewNL(drillDepth) }, core.DurableOptions{})
	if err == nil {
		d.Crash()
		t.Fatal("a log with a rejected record before a valid one booted")
	}
	if !errors.Is(err, core.ErrUnknownQuery) {
		t.Fatalf("boot error %v; want the rejection, unknown query", err)
	}
}

// TestRecoverRefusesDuplicateTailRecord: only the refusals a client can
// provoke, and a live write therefore withdraws, mark a last frame as crash
// debris. A duplicate ID no client can cause, so even as the last frame it
// fails the boot rather than being cut.
func TestRecoverRefusesDuplicateTailRecord(t *testing.T) {
	q := parseGraph(t, "v 0 0\nv 1 1\ne 0 1 0")
	dir := logDir(t, wal.Record{Kind: wal.KindAddQuery, ID: 0, Graph: q}, wal.Record{Kind: wal.KindAddQuery, ID: 0, Graph: q})
	d, err := core.OpenDurableEngine(dir, func() core.Filter { return join.NewNL(drillDepth) }, core.DurableOptions{})
	if err == nil {
		d.Crash()
		t.Fatal("a log ending in a duplicate query booted")
	}
}

// listCounter hides its filter's optional extensions, CandidateCounter
// among them, and counts the pair lists it builds.
type listCounter struct {
	core.Filter
	lists int
}

func (f *listCounter) Candidates() []core.Pair { f.lists++; return f.Filter.Candidates() }

// TestDurableStepAllBuildsOneList: on a filter that cannot count its pairs,
// a durable StepAll builds the pair list once, inside the step, and returns
// that list.
func TestDurableStepAllBuildsOneList(t *testing.T) {
	f := &listCounter{Filter: join.NewNL(drillDepth)}
	d, err := core.OpenDurableEngine(t.TempDir(), func() core.Filter { return f }, core.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Crash()
	g := parseGraph(t, "v 0 0\nv 1 1\ne 0 1 0")
	if _, err := d.AddQuery(g); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddStream(parseGraph(t, "v 0 0")); err != nil {
		t.Fatal(err)
	}
	f.lists = 0
	pairs, err := d.StepAll(map[core.StreamID]graph.ChangeSet{0: {graph.InsertOp(0, 0, 1, 1, 0)}})
	if err != nil {
		t.Fatal(err)
	}
	if f.lists != 1 || len(pairs) != 1 {
		t.Fatalf("StepAll built %d pair lists and returned %v; want one list holding the pair", f.lists, pairs)
	}
}

// gatedFS is the OS file system with the WAL file's Sync held open: once
// armed, the next Sync signals entered, waits for release to close, and
// sets synced as it returns.
type gatedFS struct {
	wal.OSFS
	armed, synced    *atomic.Bool
	entered, release chan struct{}
}

func (fs gatedFS) OpenFile(name string, flag int, perm os.FileMode) (wal.LogFile, error) {
	f, err := fs.OSFS.OpenFile(name, flag, perm)
	if err == nil && filepath.Base(name) == "wal.log" {
		f = gatedFile{LogFile: f, fs: fs}
	}
	return f, err
}

type gatedFile struct {
	wal.LogFile
	fs gatedFS
}

func (f gatedFile) Sync() error {
	if !f.fs.armed.CompareAndSwap(true, false) {
		return f.LogFile.Sync()
	}
	f.fs.entered <- struct{}{}
	<-f.fs.release
	defer f.fs.synced.Store(true)
	return f.LogFile.Sync()
}

// TestDurableReadWaitsForFsync: the engine decides what a read sees. While
// a step's closing fsync is held open, Candidates and Stats wait for it,
// so neither shows the step before it is durable, and both show it after.
func TestDurableReadWaitsForFsync(t *testing.T) {
	fs := gatedFS{armed: new(atomic.Bool), synced: new(atomic.Bool),
		entered: make(chan struct{}), release: make(chan struct{})}
	d := openDurable(t, t.TempDir(), core.DurableOptions{Fsync: wal.SyncAlways, FS: fs})
	defer d.Crash()
	if _, err := d.AddQuery(parseGraph(t, "v 0 0\nv 1 1\ne 0 1 0")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddStream(parseGraph(t, "v 0 0")); err != nil {
		t.Fatal(err)
	}
	fs.armed.Store(true)
	stepped := make(chan error, 1)
	go func() {
		_, err := d.StepAll(map[core.StreamID]graph.ChangeSet{0: {graph.InsertOp(0, 0, 1, 1, 0)}})
		stepped <- err
	}()
	<-fs.entered

	type read struct {
		what   string
		seen   bool // the step's pair, or its timestamp
		synced bool // the fsync had returned when the read did
	}
	reads := make(chan read, 2)
	go func() {
		seen := slices.Equal(d.Candidates(), []core.Pair{{Stream: 0, Query: 0}})
		reads <- read{"Candidates", seen, fs.synced.Load()}
	}()
	go func() {
		seen := d.Stats().Timestamps == 1
		reads <- read{"Stats", seen, fs.synced.Load()}
	}()
	// Release the fsync before failing: the deferred Crash waits for the
	// step.
	select {
	case r := <-reads:
		close(fs.release)
		t.Fatalf("%s returned while the step's fsync was held open (saw the step: %v)", r.what, r.seen)
	case <-time.After(50 * time.Millisecond):
		close(fs.release)
	}
	if err := <-stepped; err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if r := <-reads; !r.synced || !r.seen {
			t.Fatalf("%s returned with the fsync done: %v, and saw the step: %v; want both", r.what, r.synced, r.seen)
		}
	}
}

// TestRejectedOpCostsOneFsync: under SyncAlways a write's only fsync closes
// its commit, so an op the engine rejects, whose record is appended and
// withdrawn, costs one fsync, and the engine takes the next op cleanly.
func TestRejectedOpCostsOneFsync(t *testing.T) {
	m := wal.NewMetrics(obs.NewRegistry())
	d := openDurable(t, t.TempDir(), core.DurableOptions{Fsync: wal.SyncAlways, Metrics: m})
	defer d.Crash()
	if _, err := d.AddQuery(parseGraph(t, "v 0 0\nv 1 1\ne 0 1 0")); err != nil {
		t.Fatal(err)
	}
	before := m.FsyncSeconds.Count()
	if err := d.RemoveQuery(99); !errors.Is(err, core.ErrUnknownQuery) {
		t.Fatalf("RemoveQuery(99) = %v; want ErrUnknownQuery", err)
	}
	if got := m.FsyncSeconds.Count() - before; got != 1 {
		t.Fatalf("a rejected op took %d fsyncs; want 1", got)
	}
	if lsn := d.AppliedLSN(); lsn != 1 {
		t.Fatalf("applied LSN %d after the rejection; want 1", lsn)
	}
}

// TestAddQuerySyncFaultShipsNothing: an AddQuery whose closing fsync fails
// is not durable. Its error wraps wal.ErrSyncFailed, OnCommit ships nothing,
// and no later checkpoint folds it in: the checkpoint timer writes none and
// does not retry, Close writes none either, and an honest crash loses the
// query.
func TestAddQuerySyncFaultShipsNothing(t *testing.T) {
	const every = 2 * time.Millisecond
	disk := simdisk.New()
	metrics := wal.NewMetrics(obs.NewRegistry())
	shipped := 0
	opts := core.DurableOptions{Fsync: wal.SyncAlways, FS: disk, CheckpointInterval: every, Metrics: metrics,
		OnCommit: func(wal.Record) { shipped++ }}
	d := openDurable(t, "data", opts)
	if _, err := d.AddQuery(parseGraph(t, "v 0 0\nv 1 1\ne 0 1 0")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the first query's checkpoint", func() bool { return metrics.CheckpointSeconds.Count() > 0 })
	cpPath := filepath.Join("data", "checkpoint.json")
	checkpoint, err := disk.ReadFile(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	disk.Fail(simdisk.Sync, 0)
	if _, err := d.AddQuery(parseGraph(t, "v 0 0\nv 1 2\ne 0 1 0")); !errors.Is(err, wal.ErrSyncFailed) {
		t.Fatalf("AddQuery with a failed closing fsync = %v; want wal.ErrSyncFailed", err)
	}
	if shipped != 1 {
		t.Fatalf("OnCommit shipped %d records; want only the first query's", shipped)
	}
	time.Sleep(10 * every)
	if err := d.Close(); !errors.Is(err, simdisk.ErrInjected) {
		t.Fatalf("Close after a failed fsync = %v; want the log's failure", err)
	}
	if got, err := disk.ReadFile(cpPath); err != nil || !bytes.Equal(got, checkpoint) {
		t.Fatalf("checkpoint.json rewritten after the failed fsync (%v)", err)
	}
	if n := metrics.CheckpointFailures.Value(); n > 1 {
		t.Fatalf("%d checkpoint failures after the failed fsync; want at most 1", n)
	}
	disk.Crash(0)
	d2 := openDurable(t, "data", opts)
	defer d2.Crash()
	if q, lsn := d2.QueryCount(), d2.AppliedLSN(); q != 1 || lsn != 1 {
		t.Fatalf("after a crash the engine holds %d queries at applied LSN %d; want 1 and 1", q, lsn)
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

// TestCrashSyncsNothing: Crash is a hard kill, so it must not make durable
// what the fsync policy had not. Under SyncNever an acknowledged query is
// still unsynced when the engine crashes, and the disk's power cut then
// loses it.
func TestCrashSyncsNothing(t *testing.T) {
	disk := simdisk.New()
	opts := core.DurableOptions{Fsync: wal.SyncNever, FS: disk}
	d := openDurable(t, "data", opts)
	if _, err := d.AddQuery(parseGraph(t, "v 0 0\nv 1 1\ne 0 1 0")); err != nil {
		t.Fatal(err)
	}
	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}
	disk.Crash(0)
	d2 := openDurable(t, "data", opts)
	defer d2.Crash()
	if q, lsn := d2.QueryCount(), d2.AppliedLSN(); q != 0 || lsn != 0 {
		t.Fatalf("after a crash under SyncNever the engine holds %d queries at applied LSN %d; want 0 and 0", q, lsn)
	}
}

// TestCloseAfterCheckpointFaultSyncsLog: a Close whose final checkpoint
// fails leaves the state in the log, so Close syncs the log itself before it
// releases it, whatever the fsync policy.
func TestCloseAfterCheckpointFaultSyncsLog(t *testing.T) {
	disk := simdisk.New()
	opts := core.DurableOptions{Fsync: wal.SyncNever, FS: disk}
	d := openDurable(t, "data", opts)
	if _, err := d.AddQuery(parseGraph(t, "v 0 0\nv 1 1\ne 0 1 0")); err != nil {
		t.Fatal(err)
	}
	disk.Fail(simdisk.Rename, 0)
	if err := d.Close(); !errors.Is(err, simdisk.ErrInjected) {
		t.Fatalf("Close with a failing checkpoint rename = %v; want the injected error", err)
	}
	disk.Crash(0)
	d2 := openDurable(t, "data", opts)
	defer d2.Crash()
	if q, lsn := d2.QueryCount(), d2.AppliedLSN(); q != 1 || lsn != 1 {
		t.Fatalf("after Close and a crash the engine holds %d queries at applied LSN %d; want 1 and 1", q, lsn)
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
