package core

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"

	"nntstream/internal/graph"
)

// snapshotRoundTrip writes m's snapshot and restores it into a fresh engine
// around f: the checkpoint's write and boot paths, without the files.
func snapshotRoundTrip(t *testing.T, m *Monitor, f Filter) *Monitor {
	t.Helper()
	var buf bytes.Buffer
	if err := writeSnapshotTo(&buf, m.snapshotFile(0)); err != nil {
		t.Fatal(err)
	}
	restored, err := restoreSnapshot(&buf, f)
	if err != nil {
		t.Fatal(err)
	}
	return restored
}

// restoreSnapshot decodes a snapshot and replays it into a fresh engine
// around f.
func restoreSnapshot(r io.Reader, f Filter) (*Monitor, error) {
	file, err := readSnapshotFrom(r)
	if err != nil {
		return nil, err
	}
	m := NewMonitor(f)
	return m, m.restore(file)
}

// TestSnapshotRoundTrip snapshots an engine after some work and restores
// the snapshot into a fresh one.
func TestSnapshotRoundTrip(t *testing.T) {
	m := NewMonitor(&passthrough{})
	q1 := buildGraph(t, map[graph.VertexID]graph.Label{0: 0, 1: 1}, [][3]int{{0, 1, 0}})
	q2 := buildGraph(t, map[graph.VertexID]graph.Label{0: 2, 1: 3}, [][3]int{{0, 1, 5}})
	if _, err := m.AddQuery(q1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddQuery(q2); err != nil {
		t.Fatal(err)
	}
	g := buildGraph(t, map[graph.VertexID]graph.Label{5: 0, 6: 1, 7: 2},
		[][3]int{{5, 6, 0}, {6, 7, 1}})
	sid, err := m.AddStream(g)
	if err != nil {
		t.Fatal(err)
	}
	// Advance the stream so the canonical graph differs from g0.
	if _, err := m.Step(sid, graph.ChangeSet{graph.DeleteOp(6, 7)}); err != nil {
		t.Fatal(err)
	}

	restored := snapshotRoundTrip(t, m, &passthrough{})
	if restored.QueryCount() != 2 || restored.StreamCount() != 1 {
		t.Fatalf("restored counts: %d queries, %d streams", restored.QueryCount(), restored.StreamCount())
	}
	if !restored.StreamGraph(sid).Equal(m.StreamGraph(sid)) {
		t.Fatal("restored stream graph differs")
	}
	if !restored.Query(0).Equal(q1) || !restored.Query(1).Equal(q2) {
		t.Fatal("restored queries differ")
	}
	// Candidate sets of the rebuilt filter match.
	if !reflect.DeepEqual(m.Candidates(), restored.Candidates()) {
		t.Fatal("restored candidates differ")
	}
	// Restored monitor keeps streaming from where it left off.
	if _, err := restored.Step(sid, graph.ChangeSet{graph.InsertOp(5, 0, 9, 1, 0)}); err != nil {
		t.Fatal(err)
	}
	// ID allocation resumes past the restored IDs.
	sid2, err := restored.AddStream(g)
	if err != nil {
		t.Fatal(err)
	}
	if sid2 != sid+1 {
		t.Fatalf("restored stream id allocation: got %d; want %d", sid2, sid+1)
	}
}

func TestSnapshotPreservesIDGaps(t *testing.T) {
	// Removed queries leave ID gaps that must survive a snapshot cycle so
	// external references stay valid.
	m := NewMonitor(&passthrough{})
	q := buildGraph(t, map[graph.VertexID]graph.Label{0: 0}, nil)
	id0, _ := m.AddQuery(q)
	id1, _ := m.AddQuery(q)
	id2, _ := m.AddQuery(q)
	if err := m.RemoveQuery(id1); err != nil {
		t.Fatal(err)
	}
	restored := snapshotRoundTrip(t, m, &passthrough{})
	if restored.Query(id0) == nil || restored.Query(id2) == nil {
		t.Fatal("surviving queries missing")
	}
	if restored.Query(id1) != nil {
		t.Fatal("removed query resurrected")
	}
	// New IDs continue after the highest restored ID.
	id3, err := restored.AddQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if id3 != id2+1 {
		t.Fatalf("id allocation after restore: got %d; want %d", id3, id2+1)
	}
}

// TestSnapshotConcurrentWithStepAll: the snapshot reads the stream graphs
// that StepAll mutates in place, so it must hold the read lock for the whole
// serialization. Every step grows both streams by one edge, so a snapshot
// that saw half a step would hold streams of different sizes; the race
// detector catches the unlocked reads themselves.
func TestSnapshotConcurrentWithStepAll(t *testing.T) {
	m := NewMonitor(&passthrough{})
	ids := populate(t, m, 1, 2)
	const rounds = 50
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			v := graph.VertexID(100 + i)
			if _, err := m.StepAll(map[StreamID]graph.ChangeSet{
				ids[0]: {graph.InsertOp(0, 0, v, 1, 0)},
				ids[1]: {graph.InsertOp(0, 0, v, 1, 0)},
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < rounds; i++ {
		restored := snapshotRoundTrip(t, m, &passthrough{})
		if a, b := restored.StreamGraph(ids[0]).EdgeCount(), restored.StreamGraph(ids[1]).EdgeCount(); a != b {
			t.Fatalf("snapshot %d caught a step half applied: streams hold %d and %d edges", i, a, b)
		}
	}
	wg.Wait()
}

func TestRestoreRejectsBadSnapshots(t *testing.T) {
	cases := []string{
		"not json",
		`{"version": 99}`,
		`{"version": 1, "queries": [{"id": 0, "graph": {"edges": [{"u":0,"v":1}]}}]}`, // edge without vertices
		`{"version": 1, "queries": [{"id": 0, "graph": {}}, {"id": 0, "graph": {}}]}`, // duplicate id
	}
	for i, c := range cases {
		if _, err := restoreSnapshot(strings.NewReader(c), &passthrough{}); err == nil {
			t.Fatalf("case %d: bad snapshot accepted", i)
		}
	}
}
