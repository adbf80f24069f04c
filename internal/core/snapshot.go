package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"nntstream/internal/graph"
	"nntstream/internal/wal"
)

// Snapshot persistence: a Monitor's logical state is its query set plus the
// canonical current graph of every stream (filters are deterministic
// functions of that state, so any filter can be rebuilt from it). The
// durable engine's checkpoint is this snapshot: it is written atomically,
// restored on boot, and shipped to bootstrap a replica.

type snapshotEntry struct {
	ID    int        `json:"id"`
	Graph graph.JSON `json:"graph"`
}

type snapshotFile struct {
	Version int             `json:"version"`
	Queries []snapshotEntry `json:"queries"`
	Streams []snapshotEntry `json:"streams"`
	// NextQuery/NextStream persist the ID allocators so gaps at the top of
	// the range (a removed highest query) survive a restore. Zero values are
	// valid version-1 snapshots: restore then derives the allocators from the
	// highest IDs present.
	NextQuery  int `json:"next_query,omitempty"`
	NextStream int `json:"next_stream,omitempty"`
	// WALSeq is the LSN of the last WAL record folded into this snapshot.
	// Replay skips records at or below it, which closes the crash window
	// between checkpoint publication and log truncation.
	WALSeq uint64 `json:"wal_seq,omitempty"`
}

const snapshotVersion = 1

// snapshotFile serializes the monitor's logical state — the query and
// canonical stream graphs plus the ID allocators; filters are deterministic
// functions of it and are rebuilt on restore — stamping walSeq as the LSN
// already folded into the snapshot. It holds the read lock throughout,
// because StepAll mutates the stream graphs in place.
func (m *Monitor) snapshotFile(walSeq uint64) snapshotFile {
	m.mu.RLock()
	defer m.mu.RUnlock()
	file := snapshotFile{
		Version:    snapshotVersion,
		NextQuery:  int(m.nextQ),
		NextStream: int(m.nextS),
		WALSeq:     walSeq,
	}
	qids := make([]int, 0, len(m.queries))
	for id := range m.queries {
		qids = append(qids, int(id))
	}
	sort.Ints(qids)
	for _, id := range qids {
		file.Queries = append(file.Queries, snapshotEntry{
			ID: id, Graph: graph.ToJSON(m.queries[QueryID(id)]),
		})
	}
	sids := make([]int, 0, len(m.streams))
	for id := range m.streams {
		sids = append(sids, int(id))
	}
	sort.Ints(sids)
	for _, id := range sids {
		file.Streams = append(file.Streams, snapshotEntry{
			ID: id, Graph: graph.ToJSON(m.streams[StreamID(id)]),
		})
	}
	return file
}

func writeSnapshotTo(w io.Writer, file snapshotFile) error {
	return json.NewEncoder(w).Encode(file)
}

func readSnapshotFrom(r io.Reader) (snapshotFile, error) {
	var file snapshotFile
	if err := json.NewDecoder(r).Decode(&file); err != nil {
		return snapshotFile{}, fmt.Errorf("core: decoding snapshot: %w", err)
	}
	if file.Version != snapshotVersion {
		return snapshotFile{}, fmt.Errorf("core: unsupported snapshot version %d", file.Version)
	}
	return file, nil
}

// restore replays a snapshot's entries into a fresh engine, streams in
// ascending ID order, the order they were first added in.
func (m *Monitor) restore(file snapshotFile) error {
	for _, entry := range file.Queries {
		g, err := entry.Graph.ToGraph()
		if err != nil {
			return fmt.Errorf("core: snapshot query %d: %w", entry.ID, err)
		}
		if _, err := m.applyRecord(wal.Record{Kind: wal.KindAddQuery, ID: int64(entry.ID), Graph: g}, nil); err != nil {
			return fmt.Errorf("core: snapshot query %d: %w", entry.ID, err)
		}
	}
	for _, entry := range file.Streams {
		g, err := entry.Graph.ToGraph()
		if err != nil {
			return fmt.Errorf("core: snapshot stream %d: %w", entry.ID, err)
		}
		if _, err := m.applyRecord(wal.Record{Kind: wal.KindAddStream, ID: int64(entry.ID), Graph: g}, nil); err != nil {
			return fmt.Errorf("core: snapshot stream %d: %w", entry.ID, err)
		}
	}
	m.setNextIDs(QueryID(file.NextQuery), StreamID(file.NextStream))
	return nil
}
