package core

import (
	"bytes"
	"io"
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
