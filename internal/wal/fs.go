package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// FS is the file system the log and the checkpoint go through. OSFS is the
// one production implementation; crash tests use internal/simdisk, which
// keeps only what was synced.
type FS interface {
	// OpenFile opens name with os.OpenFile's flags.
	OpenFile(name string, flag int, perm os.FileMode) (LogFile, error)
	// Rename replaces newpath with oldpath. Like a file created or removed,
	// the new entry survives a crash once its directory is synced.
	Rename(oldpath, newpath string) error
	Remove(name string) error
	// SyncDir fsyncs directory dir, making its entries durable.
	SyncDir(dir string) error
	MkdirAll(dir string, perm os.FileMode) error
}

// OSFS is FS on the operating system's file system.
type OSFS struct{}

func (OSFS) OpenFile(name string, flag int, perm os.FileMode) (LogFile, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err // not a nil *os.File in a non-nil LogFile
	}
	return osFile{f}, nil
}

// osFile is OSFS's LogFile: an *os.File that can also start writeback
// (writeback_linux.go, or the no-op in writeback_other.go).
type osFile struct{ *os.File }

// writebackStarter is the optional LogFile method a group commit calls on
// the range an append just wrote. It is a hint: it starts the device write
// of that range and returns without waiting, so the write runs while the
// caller applies the batch and the closing fsync only has to finish it. It
// makes nothing durable and reports nothing; a file without it just leaves
// the whole write to the fsync.
type writebackStarter interface {
	StartWriteback(off, n int64)
}

func (OSFS) Rename(oldpath, newpath string) error        { return os.Rename(oldpath, newpath) }
func (OSFS) Remove(name string) error                    { return os.Remove(name) }
func (OSFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }

func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// WriteFileAtomic writes a file crash-safely through fsys: the content goes
// to <path>.tmp, is fsynced, and is renamed over path, so readers only ever
// see either the complete previous file or the complete new one. The parent
// directory is fsynced after the rename so the new directory entry itself is
// durable. On any error the previous file at path is left intact (a stale
// .tmp may remain; callers ignore or remove it on boot).
func WriteFileAtomic(fsys FS, path string, write func(w io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating %s: %w", tmp, err)
	}
	fail := func(stage string, err error) error {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("wal: %s %s: %w", stage, tmp, err)
	}
	if err := write(f); err != nil {
		return fail("writing", err)
	}
	if err := f.Sync(); err != nil {
		return fail("syncing", err)
	}
	if err := f.Close(); err != nil {
		return fail("closing", err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return fail("renaming", err)
	}
	return syncDir(fsys, filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-created or just-renamed entry survives
// a crash.
func syncDir(fsys FS, dir string) error {
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("wal: syncing dir %s: %w", dir, err)
	}
	return nil
}
