package wal

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nntstream/internal/simdisk"
)

func TestEncodeDecodeRecordRoundTrip(t *testing.T) {
	for i, r := range testRecords() {
		r.LSN = uint64(i + 1)
		data, err := EncodeRecord(r)
		if err != nil {
			t.Fatalf("encode %d: %v", i, err)
		}
		got, err := DecodeRecord(data)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if got.LSN != r.LSN || got.Kind != r.Kind || got.ID != r.ID {
			t.Fatalf("record %d round-trip: got %+v, want %+v", i, got, r)
		}
		if !reflect.DeepEqual(got.Changes, r.Changes) {
			t.Fatalf("record %d changes diverged", i)
		}
		// Re-encoding the decoded record is byte-identical (deterministic
		// encoding is what makes replica logs bit-comparable).
		again, err := EncodeRecord(got)
		if err != nil {
			t.Fatalf("re-encode %d: %v", i, err)
		}
		if string(again) != string(data) {
			t.Fatalf("record %d encoding not deterministic across round-trip", i)
		}
	}
}

func TestAppendAtPreservesLSNs(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.log")
	dst := filepath.Join(dir, "dst.log")
	l, err := Open(src, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, testRecords())
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	shipped := replayAll(t, src)

	d, err := Open(dst, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range shipped {
		if err := d.AppendAt(r); err != nil {
			t.Fatalf("AppendAt %d: %v", i, err)
		}
	}
	// Re-shipping an old record must be rejected (the engine layer treats
	// that as an idempotent skip before it reaches the log).
	if err := d.AppendAt(shipped[0]); err == nil {
		t.Fatal("AppendAt with a stale LSN succeeded")
	}
	if d.LastLSN() != shipped[len(shipped)-1].LSN {
		t.Fatalf("replica LastLSN = %d, want %d", d.LastLSN(), shipped[len(shipped)-1].LSN)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// The two logs' records are byte-identical: same records, same LSNs,
	// same framing. Past them, both files hold only zeros.
	a, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	end := d.Offset()
	if int64(len(a)) < end || int64(len(b)) < end || string(a[:end]) != string(b[:end]) {
		t.Fatal("replica log bytes diverge from primary log")
	}
	if !allZero(a[end:]) || !allZero(b[end:]) {
		t.Fatal("a log holds nonzero bytes past its records")
	}
}

func TestAppendAtAllowsGapAfterSnapshot(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "wal.log"), Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// A replica bootstrapped from a snapshot at LSN 40 receives its first
	// record at 41 while its own log is empty.
	if err := l.AppendAt(Record{LSN: 41, Kind: KindRemoveQuery, ID: 1}); err != nil {
		t.Fatalf("AppendAt over gap: %v", err)
	}
	if l.LastLSN() != 41 {
		t.Fatalf("LastLSN = %d, want 41", l.LastLSN())
	}
}

func TestRecordsFrom(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "wal.log"), Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, testRecords())
	n := uint64(len(testRecords()))

	for from := uint64(0); from <= n+1; from++ {
		var got []uint64
		if err := l.RecordsFrom(from, func(r Record) error {
			got = append(got, r.LSN)
			return nil
		}); err != nil {
			t.Fatalf("RecordsFrom(%d): %v", from, err)
		}
		var want []uint64
		for lsn := from + 1; lsn <= n; lsn++ {
			want = append(want, lsn)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("RecordsFrom(%d) = %v, want %v", from, got, want)
		}
	}

	// The iterator must not disturb the append cursor.
	if _, err := l.Append(Record{Kind: KindRemoveQuery, ID: 5}); err != nil {
		t.Fatalf("append after scan: %v", err)
	}
	var lsns []uint64
	if err := l.RecordsFrom(0, func(r Record) error {
		lsns = append(lsns, r.LSN)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(lsns) != int(n)+1 {
		t.Fatalf("after post-scan append: %d records, want %d", len(lsns), n+1)
	}
}

func TestRecordsFromCompacted(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "wal.log"), Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, testRecords())
	if err := l.Reset(); err != nil { // checkpoint folded records 1..4 away
		t.Fatal(err)
	}
	// Empty log, lastLSN still 4: anything before 4 is gone.
	if err := l.RecordsFrom(2, func(Record) error { return nil }); !errors.Is(err, ErrCompacted) {
		t.Fatalf("RecordsFrom(2) after reset = %v, want ErrCompacted", err)
	}
	// From the reset point onward there is nothing to ship — not an error.
	if err := l.RecordsFrom(4, func(Record) error { return nil }); err != nil {
		t.Fatalf("RecordsFrom(4) after reset: %v", err)
	}
	// New appends land at LSN 5; a replica at 4 can catch up, a replica at 2
	// cannot.
	if _, err := l.Append(Record{Kind: KindRemoveQuery, ID: 9}); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	if err := l.RecordsFrom(4, func(r Record) error { got = append(got, r.LSN); return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []uint64{5}) {
		t.Fatalf("RecordsFrom(4) = %v, want [5]", got)
	}
	if err := l.RecordsFrom(2, func(Record) error { return nil }); !errors.Is(err, ErrCompacted) {
		t.Fatalf("RecordsFrom(2) with post-reset suffix = %v, want ErrCompacted", err)
	}
}

// TestWriteFileAtomicFaultStages fails each stage of the atomic
// replacement on the simulated disk: the error carries the fault, the
// published file is intact, no temp file is left, and the fault, being one
// shot, lets the next write through.
func TestWriteFileAtomicFaultStages(t *testing.T) {
	for _, stage := range []struct {
		name string
		op   simdisk.Op
	}{{"write", simdisk.Write}, {"sync", simdisk.Sync}, {"rename", simdisk.Rename}} {
		t.Run(stage.name, func(t *testing.T) {
			disk := simdisk.New()
			const path = "file.json"
			write := func(content string) error {
				return WriteFileAtomic(disk, path, func(w io.Writer) error {
					_, err := io.WriteString(w, content)
					return err
				})
			}
			if err := write("old"); err != nil {
				t.Fatal(err)
			}
			disk.Fail(stage.op, 0)
			if err := write("new"); !errors.Is(err, simdisk.ErrInjected) {
				t.Fatalf("write with a failed %s = %v; want the injected fault", stage.name, err)
			}
			// The published file is untouched and no temp debris remains.
			if data, err := disk.ReadFile(path); err != nil || string(data) != "old" {
				t.Fatalf("previous file not intact: %q, %v", data, err)
			}
			if _, err := disk.ReadFile(path + ".tmp"); err == nil {
				t.Fatal("temp file left behind")
			}
			if err := write("new"); err != nil {
				t.Fatalf("write after the fault: %v", err)
			}
			// The replacement survives a crash: the rename's directory was
			// synced.
			disk.Crash(0)
			if data, _ := disk.ReadFile(path); string(data) != "new" {
				t.Fatalf("content after the fault and a crash: %q", data)
			}
		})
	}
}
