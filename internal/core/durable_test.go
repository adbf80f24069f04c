package core

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
	"time"

	"nntstream/internal/graph"
	"nntstream/internal/obs"
	"nntstream/internal/wal"
)

// labelFilter is a deterministic content-sensitive filter for recovery
// tests: a (stream, query) pair is a candidate when the query's edge-label
// multiset is contained in the stream's. Unlike passthrough, its candidate
// set changes with every insertion and deletion, so a recovered engine that
// lost or double-applied a single change set produces a visibly different
// answer. It is dynamic, which lets the tests exercise RemoveQuery and
// post-seal AddQuery records too.
type labelFilter struct {
	queries map[QueryID]map[graph.Label]int
	streams map[StreamID]map[graph.Label]int
	// edges tracks each stream's edge labels so deletions (which carry no
	// label on the wire) can decrement the right count.
	edges map[StreamID]map[[2]graph.VertexID]graph.Label
}

func newLabelFilter() *labelFilter {
	return &labelFilter{
		queries: make(map[QueryID]map[graph.Label]int),
		streams: make(map[StreamID]map[graph.Label]int),
		edges:   make(map[StreamID]map[[2]graph.VertexID]graph.Label),
	}
}

func edgeKey(u, v graph.VertexID) [2]graph.VertexID {
	if u > v {
		u, v = v, u
	}
	return [2]graph.VertexID{u, v}
}

func labelCounts(g *graph.Graph) map[graph.Label]int {
	counts := make(map[graph.Label]int)
	for _, e := range g.Edges() {
		counts[e.Label]++
	}
	return counts
}

func (f *labelFilter) Name() string { return "label-multiset" }

func (f *labelFilter) AddQuery(id QueryID, q *graph.Graph) error {
	f.queries[id] = labelCounts(q)
	return nil
}

func (f *labelFilter) RemoveQuery(id QueryID) error {
	delete(f.queries, id)
	return nil
}

func (f *labelFilter) AddStream(id StreamID, g0 *graph.Graph) error {
	f.streams[id] = labelCounts(g0)
	edges := make(map[[2]graph.VertexID]graph.Label)
	for _, e := range g0.Edges() {
		edges[edgeKey(e.U, e.V)] = e.Label
	}
	f.edges[id] = edges
	return nil
}

func (f *labelFilter) Apply(id StreamID, cs graph.ChangeSet) error {
	counts, edges := f.streams[id], f.edges[id]
	for _, op := range cs {
		key := edgeKey(op.U, op.V)
		switch op.Kind {
		case graph.OpInsert:
			counts[op.EdgeLabel]++
			edges[key] = op.EdgeLabel
		case graph.OpDelete:
			l, ok := edges[key]
			if !ok {
				continue // deleting an absent edge is a no-op, as in graph.ChangeOp.Apply
			}
			counts[l]--
			delete(edges, key)
		}
	}
	return nil
}

func (f *labelFilter) Candidates() []Pair {
	var out []Pair
	for sid, scounts := range f.streams {
		for qid, qcounts := range f.queries {
			ok := true
			for l, n := range qcounts {
				if scounts[l] < n {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, Pair{Stream: sid, Query: qid})
			}
		}
	}
	return SortPairs(out)
}

// mutator is the mutation surface shared by DurableEngine and the in-memory
// twin engines the recovery tests compare against.
type mutator interface {
	AddQuery(q *graph.Graph) (QueryID, error)
	RemoveQuery(id QueryID) error
	AddStream(g0 *graph.Graph) (StreamID, error)
	StepAll(changes map[StreamID]graph.ChangeSet) ([]Pair, error)
	Candidates() []Pair
}

// recoveryOps is the scripted workload; each op becomes exactly one WAL
// record, covering all four record kinds. The shardedFixture data dir was
// written from this script, so changing it invalidates the fixture.
func recoveryOps(t *testing.T) []func(m mutator) error {
	t.Helper()
	q0 := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 0}, [][3]int{{0, 1, 1}})
	q1 := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 0, 2: 0}, [][3]int{{0, 1, 2}, {1, 2, 3}})
	q2 := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 0}, [][3]int{{0, 1, 4}})
	s0 := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 0, 2: 0}, [][3]int{{0, 1, 1}, {1, 2, 2}})
	s1 := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 0}, [][3]int{{0, 1, 3}})
	return []func(m mutator) error{
		func(m mutator) error { _, err := m.AddQuery(q0); return err },
		func(m mutator) error { _, err := m.AddQuery(q1); return err },
		func(m mutator) error { _, err := m.AddStream(s0); return err },
		func(m mutator) error { _, err := m.AddStream(s1); return err },
		func(m mutator) error {
			_, err := m.StepAll(map[StreamID]graph.ChangeSet{
				0: {graph.InsertOp(2, 0, 3, 0, 3)},
				1: {graph.InsertOp(1, 0, 2, 0, 1)},
			})
			return err
		},
		func(m mutator) error { _, err := m.AddQuery(q2); return err }, // post-seal (dynamic filter)
		func(m mutator) error { return m.RemoveQuery(0) },
		func(m mutator) error {
			_, err := m.StepAll(map[StreamID]graph.ChangeSet{
				0: {graph.DeleteOp(1, 2), graph.InsertOp(3, 0, 4, 0, 4)},
			})
			return err
		},
	}
}

// expectedCandidates returns the candidate set of a never-crashed engine
// after each op prefix: expected[k] is the answer after the first k ops.
func expectedCandidates(t *testing.T) [][]Pair {
	t.Helper()
	ops := recoveryOps(t)
	expected := make([][]Pair, len(ops)+1)
	for k := 0; k <= len(ops); k++ {
		m := NewMonitor(newLabelFilter())
		for _, op := range ops[:k] {
			if err := op(m); err != nil {
				t.Fatalf("twin op: %v", err)
			}
		}
		expected[k] = m.Candidates()
	}
	return expected
}

func pairsEqual(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func openDurable(t *testing.T, dir string, opts DurableOptions) *DurableEngine {
	t.Helper()
	d, err := OpenDurableEngine(dir, func() Filter { return newLabelFilter() }, opts)
	if err != nil {
		t.Fatalf("OpenDurableEngine(%s): %v", dir, err)
	}
	return d
}

// runAndCrash applies the full workload to a fresh durable engine and kills
// it without a checkpoint, returning the raw WAL bytes.
func runAndCrash(t *testing.T, dir string) []byte {
	t.Helper()
	d := openDurable(t, dir, DurableOptions{Fsync: wal.SyncAlways})
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

const testWALMagicLen = 8 // len("nntwal\x00\x01")

// walFrameEnds walks the frame headers and returns the file offset at the
// end of each complete record.
func walFrameEnds(t *testing.T, data []byte) []int64 {
	t.Helper()
	var ends []int64
	off := int64(testWALMagicLen)
	for off+8 <= int64(len(data)) {
		payload := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		next := off + 8 + payload
		if next > int64(len(data)) {
			t.Fatalf("frame at %d overruns file", off)
		}
		ends = append(ends, next)
		off = next
	}
	if off != int64(len(data)) {
		t.Fatalf("trailing %d bytes after last frame", int64(len(data))-off)
	}
	return ends
}

// killPoint boots an engine from a WAL prefix cut at an arbitrary byte, on
// top of a checkpoint when one is given.
func killPoint(t *testing.T, checkpoint, data []byte, cut int64) *DurableEngine {
	t.Helper()
	dir := t.TempDir()
	writeDataDir(t, dir, checkpoint, data[:cut])
	return openDurable(t, dir, DurableOptions{Fsync: wal.SyncAlways})
}

// writeDataDir lays out a data dir: wal.log, plus checkpoint.json if given.
func writeDataDir(t *testing.T, dir string, checkpoint, walBytes []byte) {
	t.Helper()
	if checkpoint != nil {
		if err := os.WriteFile(filepath.Join(dir, checkpointFileName), checkpoint, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, walFileName), walBytes, 0o644); err != nil {
		t.Fatal(err)
	}
}

// shardedFixture is a data dir written before the engine lost stream
// sharding, by an engine that split its streams over three filter shards:
// it ran recoveryOps[:4], checkpointed, ran recoveryOps[4:] (a RemoveQuery
// among them) and was killed. Neither the checkpoint nor the WAL records
// shard placement, so the one-filter engine must boot it as its own.
const shardedFixture = "testdata/sharded"

// readShardedFixture returns the fixture's checkpoint and WAL bytes.
func readShardedFixture(t *testing.T) (checkpoint, walBytes []byte) {
	t.Helper()
	checkpoint, err := os.ReadFile(filepath.Join(shardedFixture, checkpointFileName))
	if err != nil {
		t.Fatal(err)
	}
	walBytes, err = os.ReadFile(filepath.Join(shardedFixture, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	return checkpoint, walBytes
}

// TestDurableKillPointEveryByte is the crash-recovery property test: for a
// WAL torn at every possible byte boundary, recovery must reach exactly the
// state of a never-crashed engine that executed the surviving record prefix.
// The "sharded" case tears the sharded fixture's WAL tail on top of its
// checkpoint.
func TestDurableKillPointEveryByte(t *testing.T) {
	expected := expectedCandidates(t)
	t.Run("monitor", func(t *testing.T) {
		testKillPoints(t, nil, runAndCrash(t, t.TempDir()), expected)
	})
	t.Run("sharded", func(t *testing.T) {
		checkpoint, data := readShardedFixture(t)
		// The fixture checkpointed after the first half of the ops.
		testKillPoints(t, checkpoint, data, expected[len(recoveryOps(t))/2:])
	})
}

// testKillPoints boots every byte-prefix of data (on top of checkpoint) and
// compares with expected[k], the answer after the checkpoint plus k records.
func testKillPoints(t *testing.T, checkpoint, data []byte, expected [][]Pair) {
	ends := walFrameEnds(t, data)
	if len(ends) != len(expected)-1 {
		t.Fatalf("WAL has %d records for %d ops", len(ends), len(expected)-1)
	}
	for cut := int64(testWALMagicLen); cut <= int64(len(data)); cut++ {
		complete := 0
		for _, end := range ends {
			if end <= cut {
				complete++
			}
		}
		d := killPoint(t, checkpoint, data, cut)
		if got := d.Candidates(); !pairsEqual(got, expected[complete]) {
			t.Fatalf("cut at byte %d (%d complete records): candidates %v, want %v",
				cut, complete, got, expected[complete])
		}
		if err := d.Crash(); err != nil {
			t.Fatal(err)
		}
	}
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
			d, err := OpenDurableEngine(dir, func() Filter { return newLabelFilter() },
				DurableOptions{Fsync: wal.SyncNever, CheckpointInterval: time.Minute})
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

// TestDurableRecoveredEngineAcceptsWrites ensures a recovered engine is live:
// post-recovery mutations append, and a second recovery includes them.
func TestDurableRecoveredEngineAcceptsWrites(t *testing.T) {
	data := runAndCrash(t, t.TempDir())
	// Cut mid-final-record: the torn record is discarded on recovery.
	ends := walFrameEnds(t, data)
	cut := ends[len(ends)-1] - 3
	d := killPoint(t, nil, data, cut)
	if _, err := d.StepAll(map[StreamID]graph.ChangeSet{1: {graph.InsertOp(5, 0, 6, 0, 9)}}); err != nil {
		t.Fatalf("step after recovery: %v", err)
	}
	want := d.Candidates()
	dir := filepath.Dir(d.cpPath)
	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}
	d2 := openDurable(t, dir, DurableOptions{Fsync: wal.SyncAlways})
	defer d2.Crash()
	if got := d2.Candidates(); !pairsEqual(got, want) {
		t.Fatalf("second recovery: candidates %v, want %v", got, want)
	}
}

// TestDurableCheckpointThenCrash covers checkpoint + post-checkpoint records.
// The "sharded" case is the upgrade path: the same scenario's data dir as a
// three-shard engine wrote it (shardedFixture) must recover unchanged.
func TestDurableCheckpointThenCrash(t *testing.T) {
	ops := recoveryOps(t)
	t.Run("monitor", func(t *testing.T) {
		dir := t.TempDir()
		d := openDurable(t, dir, DurableOptions{Fsync: wal.SyncAlways})
		mid := len(ops) / 2
		for _, op := range ops[:mid] {
			if err := op(d); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for _, op := range ops[mid:] {
			if err := op(d); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Crash(); err != nil {
			t.Fatal(err)
		}
		assertRecoversLikeReplay(t, dir)
	})
	t.Run("sharded", func(t *testing.T) {
		dir := t.TempDir()
		checkpoint, data := readShardedFixture(t)
		writeDataDir(t, dir, checkpoint, data)
		assertRecoversLikeReplay(t, dir)
	})
}

// assertRecoversLikeReplay boots dir and requires the candidates and next
// IDs of an engine that ran every recovery op from scratch.
func assertRecoversLikeReplay(t *testing.T, dir string) {
	t.Helper()
	twin := NewMonitor(newLabelFilter())
	for _, op := range recoveryOps(t) {
		if err := op(twin); err != nil {
			t.Fatal(err)
		}
	}
	d := openDurable(t, dir, DurableOptions{Fsync: wal.SyncAlways})
	defer d.Crash()
	if got, want := d.Candidates(), twin.Candidates(); !pairsEqual(got, want) {
		t.Fatalf("recovered candidates %v, want %v", got, want)
	}
	gotQ, gotS := d.NextIDs()
	if wantQ, wantS := twin.nextIDs(); gotQ != wantQ || gotS != wantS {
		t.Fatalf("recovered next IDs (%d, %d), want (%d, %d)", gotQ, gotS, wantQ, wantS)
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
	d := openDurable(t, preDir, DurableOptions{Fsync: wal.SyncAlways})
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
	d2 := openDurable(t, preDir, DurableOptions{Fsync: wal.SyncAlways})
	want := expectedCandidates(t)[len(recoveryOps(t))]
	if got := d2.Candidates(); !pairsEqual(got, want) {
		t.Fatalf("recovered candidates %v, want %v", got, want)
	}
	// The engine must keep accepting writes with LSNs above the checkpoint.
	if _, err := d2.StepAll(map[StreamID]graph.ChangeSet{0: {graph.InsertOp(9, 0, 10, 0, 2)}}); err != nil {
		t.Fatal(err)
	}
	want2 := d2.Candidates()
	if err := d2.Crash(); err != nil {
		t.Fatal(err)
	}
	d3 := openDurable(t, preDir, DurableOptions{Fsync: wal.SyncAlways})
	defer d3.Crash()
	if got := d3.Candidates(); !pairsEqual(got, want2) {
		t.Fatalf("post-window write lost: candidates %v, want %v", got, want2)
	}
}

// TestDurableCleanRestartAfterCheckpoint covers the LSN rebase: a fresh
// process's log restarts numbering at 1, below the checkpoint's WALSeq, and
// boot must rebase so new records are not skipped by the next recovery.
func TestDurableCleanRestartAfterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ops := recoveryOps(t)
	d := openDurable(t, dir, DurableOptions{Fsync: wal.SyncAlways})
	for _, op := range ops {
		if err := op(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil { // Close checkpoints and resets the log
		t.Fatal(err)
	}
	d2 := openDurable(t, dir, DurableOptions{Fsync: wal.SyncAlways})
	if _, err := d2.StepAll(map[StreamID]graph.ChangeSet{1: {graph.InsertOp(7, 0, 8, 0, 4)}}); err != nil {
		t.Fatal(err)
	}
	want := d2.Candidates()
	if err := d2.Crash(); err != nil { // no checkpoint: the new record must replay
		t.Fatal(err)
	}
	d3 := openDurable(t, dir, DurableOptions{Fsync: wal.SyncAlways})
	defer d3.Crash()
	if got := d3.Candidates(); !pairsEqual(got, want) {
		t.Fatalf("write after clean restart lost: candidates %v, want %v", got, want)
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
	d := openDurable(t, dir, DurableOptions{Fsync: wal.SyncAlways})
	defer d.Crash()
	want := expectedCandidates(t)[len(recoveryOps(t))]
	if got := d.Candidates(); !pairsEqual(got, want) {
		t.Fatalf("recovered candidates %v, want %v", got, want)
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoint.json.tmp")); !os.IsNotExist(err) {
		t.Fatal("stale checkpoint temp file survived boot")
	}
}

// TestDurableRejectedOpLeavesNoRecord: append-before-apply must withdraw the
// record of an operation the engine rejects, or replay would diverge.
func TestDurableRejectedOpLeavesNoRecord(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, DurableOptions{Fsync: wal.SyncAlways})
	for _, op := range recoveryOps(t) {
		if err := op(d); err != nil {
			t.Fatal(err)
		}
	}
	lsn := d.LastLSN()
	// Invalid change set: label conflict on stream 0's vertex 0.
	if _, err := d.StepAll(map[StreamID]graph.ChangeSet{0: {graph.InsertOp(0, 9, 11, 0, 1)}}); err == nil {
		t.Fatal("invalid change set accepted")
	}
	if got := d.LastLSN(); got != lsn {
		t.Fatalf("rejected op advanced the LSN: %d -> %d", lsn, got)
	}
	// Unknown stream: rejected by staging, record withdrawn.
	if _, err := d.StepAll(map[StreamID]graph.ChangeSet{42: nil}); err == nil {
		t.Fatal("unknown stream accepted")
	}
	want := d.Candidates()
	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}
	d2 := openDurable(t, dir, DurableOptions{Fsync: wal.SyncAlways})
	defer d2.Crash()
	if got := d2.Candidates(); !pairsEqual(got, want) {
		t.Fatalf("recovered candidates %v, want %v", got, want)
	}
	if got := d2.LastLSN(); got != lsn {
		t.Fatalf("replayed LSN %d, want %d", got, lsn)
	}
}

// TestDurableFaultInjection drives the engine through injected write faults:
// the failed operation surfaces an error, the log stays consistent, and
// recovery sees exactly the acknowledged operations.
func TestDurableFaultInjection(t *testing.T) {
	dir := t.TempDir()
	var ff *wal.FaultFile
	d := openDurable(t, dir, DurableOptions{
		Fsync: wal.SyncAlways,
		WrapFile: func(f wal.LogFile) wal.LogFile {
			ff = wal.NewFaultFile(f, wal.FaultNone, 0)
			return ff
		},
	})
	ops := recoveryOps(t)
	mid := len(ops) / 2
	for _, op := range ops[:mid] {
		if err := op(d); err != nil {
			t.Fatal(err)
		}
	}
	// The next append tears 10 bytes in.
	ff.Arm(wal.FaultError, 10)
	if err := ops[mid](d); err == nil {
		t.Fatal("op succeeded through an injected write fault")
	}
	if ff.Tripped() == 0 {
		t.Fatal("fault never fired")
	}
	ff.Heal()
	// The engine retries cleanly after the device recovers.
	for _, op := range ops[mid:] {
		if err := op(d); err != nil {
			t.Fatalf("op after heal: %v", err)
		}
	}
	want := d.Candidates()
	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}
	d2 := openDurable(t, dir, DurableOptions{Fsync: wal.SyncAlways})
	defer d2.Crash()
	if got := d2.Candidates(); !pairsEqual(got, want) {
		t.Fatalf("recovered candidates %v, want %v", got, want)
	}
}

// TestDurableMetrics wires a registry through the engine and checks the
// durability instruments move.
func TestDurableMetrics(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	metrics := wal.NewMetrics(reg)
	d := openDurable(t, dir, DurableOptions{Fsync: wal.SyncAlways, Metrics: metrics})
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
	d2 := openDurable(t, dir, DurableOptions{Fsync: wal.SyncAlways, Metrics: metrics})
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
