package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"nntstream/internal/graph"
	"nntstream/internal/obs"
	"nntstream/internal/simdisk"
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
	return replayOn(t, OSFS{}, path)
}

// replayOn is replayAll on the file system fsys.
func replayOn(t *testing.T, fsys FS, path string) []Record {
	t.Helper()
	var got []Record
	l, err := Open(path, Options{FS: fsys, OnRecord: func(r Record) error {
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

// TestLogTornTailEveryByte is the wal-level kill-point test: the log's
// written prefix is cut at every byte and reopened, once as a file that ends
// at the cut (a log written before the zero tail, or a torn extension) and
// once with the zero tail kept and the cut bytes zeroed (a torn overwrite of
// the tail). The replayed prefix must be exactly the records whose frames
// survive whole; a tail that is not all zero must be truncated back to that
// boundary and counted, an all-zero one kept and not counted; and the log
// must accept new appends afterwards. It runs on a simulated disk, which
// makes the thousands of fsyncs free.
func TestLogTornTailEveryByte(t *testing.T) {
	disk := simdisk.New()
	l, err := Open("wal.log", Options{Sync: SyncAlways, FS: disk})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, testRecords())
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := disk.ReadFile("wal.log")
	if err != nil {
		t.Fatal(err)
	}
	res, err := scanFrames(full[len(fileMagic):], nil)
	if err != nil || res.records != 4 {
		t.Fatalf("baseline scan: %+v err %v", res, err)
	}
	written := int64(len(fileMagic)) + res.validLen
	if tail := full[written:]; len(tail) == 0 || !allZero(tail) {
		t.Fatalf("baseline: %d bytes past the records, not a zero tail", len(tail))
	}
	// boundaries[i] is the file size once records 0..i-1 are fully on disk.
	boundaries := append([]int64{int64(len(fileMagic))}, frameOffsets(t, full)...)

	for cut := int64(0); cut <= written; cut++ {
		for _, keepTail := range []bool{false, true} {
			if keepTail && cut < int64(len(fileMagic)) {
				continue // the magic goes out alone, before any tail exists
			}
			data := full[:cut:cut]
			if keepTail {
				data = append(data, make([]byte, len(full)-int(cut))...)
			}
			checkCut(t, disk, fmt.Sprintf("cut %d keepTail %v", cut, keepTail), data, full, boundaries)
		}
	}
}

// checkCut opens data as a log and holds recovery to what the bytes allow:
// the records whose frames match full survive, and what follows them is
// kept if all zero and otherwise truncated and counted.
func checkCut(t *testing.T, disk *simdisk.Disk, at string, data, full []byte, boundaries []int64) {
	t.Helper()
	const cutPath = "cut.log"
	disk.WriteFile(cutPath, data)
	wantRecords := 0
	for _, b := range boundaries[1:] {
		if b <= int64(len(data)) && bytes.Equal(data[:b], full[:b]) {
			wantRecords++
		}
	}
	valid, wantSize, tornWant := boundaries[wantRecords], int64(len(data)), int64(0)
	switch {
	case len(data) == 0:
		wantSize = valid // a fresh log: the magic is written
	case len(data) < len(fileMagic):
		wantSize, tornWant = valid, int64(len(data)) // torn magic counts whole file
	case !allZero(data[valid:]):
		wantSize, tornWant = valid, int64(len(data))-valid
	}
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	var got []Record
	l, err := Open(cutPath, Options{Metrics: m, FS: disk, OnRecord: func(r Record) error {
		got = append(got, r)
		return nil
	}})
	if err != nil {
		t.Fatalf("%s: open: %v", at, err)
	}
	if len(got) != wantRecords {
		t.Fatalf("%s: replayed %d records; want %d", at, len(got), wantRecords)
	}
	if off := l.Offset(); off != valid {
		t.Fatalf("%s: offset %d; want %d", at, off, valid)
	}
	if recovered, err := disk.ReadFile(cutPath); err != nil || int64(len(recovered)) != wantSize {
		t.Fatalf("%s: recovered file size %v (%v); want %d", at, len(recovered), err, wantSize)
	}
	if n := m.TornTruncations.Value(); n != b2i(tornWant > 0) || m.TornBytes.Value() != tornWant {
		t.Fatalf("%s: %d torn truncations of %d bytes; want %d bytes torn", at, n, m.TornBytes.Value(), tornWant)
	}
	// The log must be appendable where the valid prefix ends.
	if _, err := l.Append(Record{Kind: KindRemoveQuery, ID: 99}); err != nil {
		t.Fatalf("%s: append after recovery: %v", at, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := replayOn(t, disk, cutPath)
	if len(reopened) != wantRecords+1 {
		t.Fatalf("%s: after heal replay %d records; want %d", at, len(reopened), wantRecords+1)
	}
	if last := reopened[len(reopened)-1]; last.Kind != KindRemoveQuery || last.ID != 99 {
		t.Fatalf("%s: healed tail = %+v", at, last)
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func allZero(b []byte) bool { return len(bytes.TrimLeft(b, "\x00")) == 0 }

// TestRecoverKeepsZeroTail: a log keeps zero-filled space past its last
// record, grown in the appends' own writes; Close → Open keeps it, at the
// same size and offset, without counting a torn truncation; and a log
// written before the zero tail existed opens unchanged and gains one on its
// next append.
func TestRecoverKeepsZeroTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, err := Open(path, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[int64]bool{}
	for i := 0; i < 400; i++ {
		if _, err := l.Append(Record{Kind: KindAddQuery, ID: int64(i), Graph: lineGraph(3)}); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if off := l.Offset(); info.Size() <= off || info.Size()%minGrow != 0 {
			t.Fatalf("append %d: file size %d at offset %d; want a whole number of %d-byte blocks past it", i, info.Size(), off, minGrow)
		}
		sizes[info.Size()] = true
	}
	off := l.Offset()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The tail grows with the log, so 400 appends grow the file a few times.
	if len(sizes) < 2 || len(sizes) > 4 {
		t.Fatalf("the file took %d sizes over 400 appends (offset %d)", len(sizes), off)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !allZero(full[off:]) {
		t.Fatal("the tail past the last record is not all zero")
	}

	reopen := func(at string, data []byte) *Log {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m := NewMetrics(obs.NewRegistry())
		n := 0
		l, err := Open(path, Options{Sync: SyncNever, Metrics: m, OnRecord: func(Record) error { n++; return nil }})
		if err != nil {
			t.Fatalf("%s: %v", at, err)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if n != 400 || l.Offset() != off || info.Size() != int64(len(data)) {
			t.Fatalf("%s: %d records at offset %d in %d bytes; want 400 at %d in %d", at, n, l.Offset(), info.Size(), off, len(data))
		}
		if m.TornTruncations.Value() != 0 || m.TornBytes.Value() != 0 {
			t.Fatalf("%s: a zero tail counted as torn (%d bytes)", at, m.TornBytes.Value())
		}
		return l
	}
	if err := reopen("preallocated", full).Close(); err != nil {
		t.Fatal(err)
	}
	old := reopen("without a tail", full[:off])
	if _, err := old.Append(Record{Kind: KindRemoveQuery, ID: 1}); err != nil {
		t.Fatal(err)
	}
	end := old.Offset()
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	grown, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(grown)) <= end || !allZero(grown[end:]) || !bytes.Equal(grown[:off], full[:off]) {
		t.Fatalf("the old log did not gain a zero tail: %d bytes, records end at %d", len(grown), end)
	}
}

// TestCrashAfterTruncateToReplaysNoUndoneRecord: the undo of a rejected
// apply must leave nothing decodable past the boundary. A crash right after
// it must not replay the undone frame, which carries the next LSN and a
// valid CRC.
func TestCrashAfterTruncateToReplaysNoUndoneRecord(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, err := Open(path, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, testRecords()[:2])
	off, lsn := l.Offset(), l.LastLSN()
	if _, err := l.Append(Record{Kind: KindRemoveQuery, ID: 7}); err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateTo(off, lsn); err != nil {
		t.Fatal(err)
	}
	// The crash: the file as the undo left it, opened by a new process.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !allZero(data[off:]) {
		t.Fatalf("%d bytes past the undo boundary are not zero", len(data)-int(off))
	}
	crashed := filepath.Join(dir, "crashed.log")
	if err := os.WriteFile(crashed, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, crashed); len(got) != 2 || got[1].LSN != lsn {
		t.Fatalf("replay after undo and crash: %d records; want 2 ending at LSN %d", len(got), lsn)
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

// TestLogFaultInjection drives the log through faults the simulated disk
// injects: a failed or short append is rolled back to the record boundary,
// and a record whose fsync the device acknowledged but lost is torn off and
// counted at the next open.
func TestLogFaultInjection(t *testing.T) {
	open := func(t *testing.T, policy SyncPolicy) (*Log, *simdisk.Disk) {
		t.Helper()
		disk := simdisk.New()
		l, err := Open("wal.log", Options{Sync: policy, FS: disk})
		if err != nil {
			t.Fatal(err)
		}
		return l, disk
	}
	t.Run("short_write_rolls_back", func(t *testing.T) {
		l, disk := open(t, SyncAlways)
		appendAll(t, l, testRecords()[:2])
		// The next write keeps 5 bytes: a frame torn mid-header.
		disk.Fail(simdisk.ShortWrite, 5)
		if _, err := l.Append(testRecords()[2]); err == nil {
			t.Fatal("append through short write succeeded")
		}
		// The log rolled back; the next append lands cleanly.
		if _, err := l.Append(Record{Kind: KindRemoveQuery, ID: 42}); err != nil {
			t.Fatalf("append after the fault: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		got := replayOn(t, disk, "wal.log")
		if len(got) != 3 || got[2].ID != 42 {
			t.Fatalf("replay = %d records, tail %+v", len(got), got[len(got)-1])
		}
	})
	t.Run("torn_extension_rolls_back", func(t *testing.T) {
		// The first append grows the file; its write tears past the
		// frame, inside the zero extension.
		l, disk := open(t, SyncAlways)
		disk.Fail(simdisk.ShortWrite, 100)
		if _, err := l.Append(Record{Kind: KindRemoveQuery, ID: 1}); err == nil {
			t.Fatal("append through a torn extension succeeded")
		}
		if data, err := disk.ReadFile("wal.log"); err != nil || int64(len(data)) != l.Offset() {
			t.Fatalf("after the rollback the file holds %d bytes (%v); want %d", len(data), err, l.Offset())
		}
		if _, err := l.Append(Record{Kind: KindRemoveQuery, ID: 2}); err != nil {
			t.Fatalf("append after the fault: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if got := replayOn(t, disk, "wal.log"); len(got) != 1 || got[0].ID != 2 {
			t.Fatalf("replay = %+v; want the record appended after the fault", got)
		}
	})
	t.Run("write_error_rolls_back", func(t *testing.T) {
		l, disk := open(t, SyncNever)
		appendAll(t, l, testRecords()[:1])
		disk.Fail(simdisk.Write, 3)
		if _, err := l.Append(testRecords()[1]); !errors.Is(err, simdisk.ErrInjected) {
			t.Fatalf("append through write fault = %v; want the injected error", err)
		}
		if _, err := l.Append(testRecords()[1]); err != nil {
			t.Fatalf("append after the fault: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if got := replayOn(t, disk, "wal.log"); len(got) != 2 {
			t.Fatalf("replay = %d records; want 2", len(got))
		}
	})
	t.Run("dropped_sync_is_counted", func(t *testing.T) {
		// The device acknowledged the second record's fsync and then lost
		// its last bytes: the next open replays the first record and
		// counts the torn one.
		l, disk := open(t, SyncAlways)
		appendAll(t, l, testRecords()[:2])
		end := l.Offset()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		disk.CrashLying("wal.log", int(end)-3, false)
		m := NewMetrics(obs.NewRegistry())
		n := 0
		l, err := Open("wal.log", Options{FS: disk, Metrics: m, OnRecord: func(Record) error { n++; return nil }})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if n != 1 || m.TornTruncations.Value() != 1 {
			t.Fatalf("after a lost sync: %d records replayed, %d torn truncations; want 1 and 1", n, m.TornTruncations.Value())
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
	if err := WriteFileAtomic(OSFS{}, path, func(w io.Writer) error {
		_, err := w.Write([]byte("good"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	err := WriteFileAtomic(OSFS{}, path, func(w io.Writer) error {
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
