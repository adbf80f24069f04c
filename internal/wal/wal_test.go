package wal

import (
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"nntstream/internal/graph"
	"nntstream/internal/obs"
)

func testRecords() []Record {
	return []Record{
		{Kind: KindAddQuery, ID: 0, Graph: lineGraph(2)},
		{Kind: KindAddStream, ID: 0, Graph: lineGraph(3)},
		{Kind: KindStepAll, Changes: map[int64]graph.ChangeSet{
			0: {graph.InsertOp(10, 1, 11, 2, 3), graph.DeleteOp(0, 1)},
		}},
		{Kind: KindRemoveQuery, ID: 0},
	}
}

func lineGraph(n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		if err := g.AddVertex(graph.VertexID(i), graph.Label(i%3)); err != nil {
			panic(err)
		}
	}
	for i := 1; i < n; i++ {
		if err := g.AddEdge(graph.VertexID(i-1), graph.VertexID(i), 0); err != nil {
			panic(err)
		}
	}
	return g
}

func appendAll(t *testing.T, l *Log, recs []Record) {
	t.Helper()
	for i, r := range recs {
		if _, err := l.Append(r); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func replayAll(t *testing.T, path string) []Record {
	t.Helper()
	var got []Record
	l, err := Open(path, Options{OnRecord: func(r Record) error {
		got = append(got, r)
		return nil
	}})
	if err != nil {
		t.Fatalf("open for replay: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close after replay: %v", err)
	}
	return got
}

func TestLogAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, testRecords())
	if got := l.LastLSN(); got != 4 {
		t.Fatalf("LastLSN = %d; want 4", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, path)
	if len(got) != 4 {
		t.Fatalf("replayed %d records; want 4", len(got))
	}
	for i, r := range got {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d LSN = %d", i, r.LSN)
		}
	}
	if got[0].Kind != KindAddQuery || got[2].Kind != KindStepAll || got[3].Kind != KindRemoveQuery {
		t.Fatalf("kinds = %v %v %v %v", got[0].Kind, got[1].Kind, got[2].Kind, got[3].Kind)
	}
}

// TestLogTornTailEveryByte is the wal-level kill-point test: the log is cut
// at every byte boundary and reopened. The replayed prefix must be exactly
// the records whose frames fully fit, the file must be truncated back to that
// boundary, and the log must accept new appends afterwards.
func TestLogTornTailEveryByte(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, err := Open(path, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, testRecords())
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scanFrames(full[len(fileMagic):], nil)
	if err != nil || res.records != 4 || res.torn {
		t.Fatalf("baseline scan: %+v err %v", res, err)
	}
	// boundaries[i] is the file size once records 0..i-1 are fully on disk.
	boundaries := append([]int64{int64(len(fileMagic))}, frameOffsets(t, full)...)

	for cut := int64(0); cut <= int64(len(full)); cut++ {
		cutPath := filepath.Join(dir, "cut.log")
		if err := os.WriteFile(cutPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wantRecords := 0
		for _, b := range boundaries[1:] {
			if cut >= b {
				wantRecords++
			}
		}
		reg := obs.NewRegistry()
		m := NewMetrics(reg)
		var got []Record
		l, err := Open(cutPath, Options{Metrics: m, OnRecord: func(r Record) error {
			got = append(got, r)
			return nil
		}})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		if len(got) != wantRecords {
			t.Fatalf("cut %d: replayed %d records; want %d", cut, len(got), wantRecords)
		}
		// The torn tail must be physically gone and the log appendable.
		if _, err := l.Append(Record{Kind: KindRemoveQuery, ID: 99}); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		reopened := replayAll(t, cutPath)
		if len(reopened) != wantRecords+1 {
			t.Fatalf("cut %d: after heal replay %d records; want %d", cut, len(reopened), wantRecords+1)
		}
		if last := reopened[len(reopened)-1]; last.Kind != KindRemoveQuery || last.ID != 99 {
			t.Fatalf("cut %d: healed tail = %+v", cut, last)
		}
		tornWant := cut - boundaries[wantRecords]
		if wantRecords == 0 && cut < int64(len(fileMagic)) {
			tornWant = cut // torn magic counts whole file
		}
		if tornWant > 0 && m.TornTruncations.Value() != 1 {
			t.Fatalf("cut %d: torn truncation not counted (torn %d bytes)", cut, tornWant)
		}
	}
}

// frameOffsets returns the file size after each complete frame.
func frameOffsets(t *testing.T, data []byte) []int64 {
	t.Helper()
	var out []int64
	pos := int64(len(fileMagic))
	for pos+frameHeaderSize <= int64(len(data)) {
		payloadLen := int64(binary.LittleEndian.Uint32(data[pos:]))
		end := pos + frameHeaderSize + payloadLen
		if payloadLen < minPayload || end > int64(len(data)) {
			break
		}
		out = append(out, end)
		pos = end
	}
	return out
}

func TestLogCorruptMiddleStopsReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, err := Open(path, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, testRecords())
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	offsets := frameOffsets(t, data)
	// Flip one byte inside the second record's payload.
	data[offsets[0]+frameHeaderSize+1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, path)
	if len(got) != 1 {
		t.Fatalf("replayed %d records past corruption; want 1", len(got))
	}
	// The log healed itself: everything from the corrupt record on is gone.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != offsets[0] {
		t.Fatalf("file size %d after heal; want %d", info.Size(), offsets[0])
	}
}

func TestLogRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-wal")
	if err := os.WriteFile(path, []byte("definitely json{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); err == nil {
		t.Fatal("foreign file opened as WAL")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "definitely json{}" {
		t.Fatal("foreign file was modified")
	}
}

func TestLogReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, testRecords())
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	// LSNs continue after a reset; replay of the emptied log sees only the
	// new record with its post-reset LSN.
	lsn, err := l.Append(Record{Kind: KindRemoveQuery, ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 5 {
		t.Fatalf("post-reset LSN = %d; want 5", lsn)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, path)
	if len(got) != 1 || got[0].LSN != 5 {
		t.Fatalf("replay after reset = %+v", got)
	}
}

func TestLogTruncateToUndoesAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, testRecords()[:2])
	off, lsn := l.Offset(), l.LastLSN()
	if _, err := l.Append(Record{Kind: KindRemoveQuery, ID: 7}); err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateTo(off, lsn); err != nil {
		t.Fatal(err)
	}
	// The undone record must not replay, and its LSN is reused.
	lsn2, err := l.Append(Record{Kind: KindRemoveQuery, ID: 8})
	if err != nil {
		t.Fatal(err)
	}
	if lsn2 != lsn+1 {
		t.Fatalf("LSN after undo = %d; want %d", lsn2, lsn+1)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, path)
	if len(got) != 3 || got[2].ID != 8 {
		t.Fatalf("replay after undo = %d records, tail %+v", len(got), got[len(got)-1])
	}
}

func TestLogFaultInjection(t *testing.T) {
	t.Run("short_write_rolls_back", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "wal.log")
		var ff *FaultFile
		l, err := Open(path, Options{Sync: SyncAlways, WrapFile: func(f LogFile) LogFile {
			ff = NewFaultFile(f, FaultNone, 0)
			return ff
		}})
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, l, testRecords()[:2])
		// Arm: allow 5 more bytes, then tear mid-frame.
		ff.Arm(FaultShortWrite, 5)
		if _, err := l.Append(testRecords()[2]); err == nil {
			t.Fatal("append through short write succeeded")
		}
		ff.Heal()
		// The log rolled back; the next append lands cleanly.
		if _, err := l.Append(Record{Kind: KindRemoveQuery, ID: 42}); err != nil {
			t.Fatalf("append after heal: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		got := replayAll(t, path)
		if len(got) != 3 || got[2].ID != 42 {
			t.Fatalf("replay = %d records, tail %+v", len(got), got[len(got)-1])
		}
	})
	t.Run("write_error_rolls_back", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "wal.log")
		var ff *FaultFile
		l, err := Open(path, Options{Sync: SyncNever, WrapFile: func(f LogFile) LogFile {
			ff = NewFaultFile(f, FaultNone, 0)
			return ff
		}})
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, l, testRecords()[:1])
		ff.Arm(FaultError, 3)
		if _, err := l.Append(testRecords()[1]); err == nil {
			t.Fatal("append through write fault succeeded")
		}
		ff.Heal()
		if _, err := l.Append(testRecords()[1]); err != nil {
			t.Fatalf("append after heal: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if got := replayAll(t, path); len(got) != 2 {
			t.Fatalf("replay = %d records; want 2", len(got))
		}
	})
	t.Run("dropped_sync_is_counted", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "wal.log")
		var ff *FaultFile
		l, err := Open(path, Options{Sync: SyncAlways, WrapFile: func(f LogFile) LogFile {
			ff = NewFaultFile(f, FaultDropSync, 0)
			return ff
		}})
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, l, testRecords()[:2])
		if ff.DroppedSyncs() == 0 {
			t.Fatal("no syncs were dropped")
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestLogIntervalSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	l, err := Open(path, Options{Sync: SyncInterval, SyncInterval: 5 * time.Millisecond, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, testRecords())
	deadline := time.Now().Add(2 * time.Second)
	for m.FsyncSeconds.Count() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if m.FsyncSeconds.Count() == 0 {
		t.Fatal("background sync never ran")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteFileAtomicKeepsOldOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint.json")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("good"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	err := WriteFileAtomic(path, func(w io.Writer) error {
		_, _ = w.Write([]byte("partial"))
		return os.ErrClosed // simulated mid-write failure
	})
	if err == nil {
		t.Fatal("failed write reported success")
	}
	data, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if string(data) != "good" {
		t.Fatalf("previous content destroyed: %q", data)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("tmp file left behind after handled failure")
	}
}
