package simdisk

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"testing"
)

func create(t *testing.T, d *Disk, name string, data string) File {
	t.Helper()
	f, err := d.OpenFile(name, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(f, data); err != nil {
		t.Fatal(err)
	}
	return f
}

func read(d *Disk, name string) string {
	data, err := d.ReadFile(name)
	if errors.Is(err, fs.ErrNotExist) {
		return "<none>"
	}
	return string(data)
}

// TestCrashKeepsWhatWasSynced: a crash keeps a file's synced bytes and a
// directory's synced entries, and nothing written or renamed since.
func TestCrashKeepsWhatWasSynced(t *testing.T) {
	d := New()
	f := create(t, d, "dir/a", "synced")
	create(t, d, "dir/b", "never synced")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	// dir/a's entry is durable from here on; dir/b's is, but not its bytes.
	if err := d.SyncDir("dir"); err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(f, " and lost"); err != nil {
		t.Fatal(err)
	}
	create(t, d, "dir/c", "an entry never synced")
	if err := d.Rename("dir/a", "dir/renamed"); err != nil {
		t.Fatal(err)
	}
	d.Crash(0)
	for name, want := range map[string]string{"dir/a": "synced", "dir/b": "", "dir/c": "<none>", "dir/renamed": "<none>"} {
		if got := read(d, name); got != want {
			t.Errorf("%s after the crash = %q; want %q", name, got, want)
		}
	}
}

// TestCrashTearsUnsyncedPrefix: a torn crash keeps the first tear bytes
// written since the last sync, from where the file first differs from
// its synced bytes; a truncation that was not synced is undone.
func TestCrashTearsUnsyncedPrefix(t *testing.T) {
	d := New()
	f := create(t, d, "log", "0123456789")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.SyncDir("."); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(4, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(f, "abcdefghij"); err != nil {
		t.Fatal(err)
	}
	d.Crash(3)
	if got := read(d, "log"); got != "0123abc789" {
		t.Fatalf("torn crash left %q; want %q", got, "0123abc789")
	}
	g, err := d.OpenFile("log", os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Truncate(2); err != nil {
		t.Fatal(err)
	}
	d.Crash(5)
	if got := read(d, "log"); got != "0123abc789" {
		t.Fatalf("an unsynced truncation survived the crash: %q", got)
	}
}

// TestCrashLying: a lying crash cuts synced bytes, ending the file at the
// cut or filling it with zeros to its length.
func TestCrashLying(t *testing.T) {
	for _, keepLen := range []bool{false, true} {
		d := New()
		d.WriteFile("log", []byte("0123456789"))
		d.CrashLying("log", 4, keepLen)
		want := "0123"
		if keepLen {
			want += "\x00\x00\x00\x00\x00\x00"
		}
		if got := read(d, "log"); got != want {
			t.Errorf("keepLen %v: lying crash left %q; want %q", keepLen, got, want)
		}
	}
}

// TestFaultsFireOnce: each injected fault breaks exactly the next
// operation of its kind.
func TestFaultsFireOnce(t *testing.T) {
	d := New()
	f := create(t, d, "f", "")
	d.Fail(Write, 2)
	if n, err := io.WriteString(f, "abcd"); n != 2 || !errors.Is(err, ErrInjected) {
		t.Fatalf("failed write = %d, %v; want 2 and the fault", n, err)
	}
	d.Fail(ShortWrite, 1)
	if n, err := io.WriteString(f, "xyz"); n != 1 || err != nil {
		t.Fatalf("short write = %d, %v; want 1 and no error", n, err)
	}
	d.Fail(Sync, 0)
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("failed sync = %v", err)
	}
	d.Fail(Rename, 0)
	if err := d.Rename("f", "g"); !errors.Is(err, ErrInjected) || read(d, "f") != "abx" {
		t.Fatalf("failed rename = %v; f holds %q", err, read(d, "f"))
	}
	if _, err := io.WriteString(f, "!"); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.Rename("f", "g"); err != nil || read(d, "g") != "abx!" {
		t.Fatalf("rename after the faults = %v; g holds %q", err, read(d, "g"))
	}
}
