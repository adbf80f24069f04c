// Package simdisk is an in-memory wal.FS for crash tests. It keeps each
// file's bytes as of its last fsync and each directory's entries as of its
// last directory fsync, and Crash drops the rest, as a power cut does under
// POSIX rules. CrashLying also cuts synced bytes, and Fail injects a failed
// write, short write, sync or rename. It imports nothing of the module, so
// internal/wal's own tests can use it; production code uses wal.OSFS.
package simdisk

import (
	"errors"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"sync"
)

// File is what OpenFile returns: the same interface type as wal.LogFile,
// so a *Disk satisfies wal.FS.
type File = interface {
	io.ReadWriteSeeker
	io.Closer
	Sync() error
	Truncate(size int64) error
}

// Op names an operation Fail can break.
type Op int

const (
	Write      Op = iota // a Write keeps a prefix of its buffer and fails
	ShortWrite           // a Write keeps a prefix and reports no error
	Sync                 // a file's Sync fails and makes nothing durable
	Rename               // a Rename fails and moves nothing
)

// ErrInjected is the error of every operation Fail broke.
var ErrInjected = errors.New("simdisk: injected fault")

// Disk is an in-memory file system that remembers what is durable; it is
// safe for concurrent use. Names are compared as given (pass clean paths),
// and directories are not modelled: each exists and is durable.
type Disk struct {
	mu      sync.Mutex
	names   map[string]*inode // the live namespace
	durable map[string]*inode // the entries the directory syncs made durable
	faults  map[Op]int        // armed faults, with the bytes a write keeps
}

type inode struct{ data, synced []byte } // live, and as of the last fsync

// New returns an empty disk.
func New() *Disk {
	return &Disk{names: map[string]*inode{}, durable: map[string]*inode{}, faults: map[Op]int{}}
}

// Fail arms a one-shot fault on the next op; a write keeps keep bytes.
func (d *Disk) Fail(op Op, keep int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.faults[op] = keep
}

// fire consumes op's armed fault. d.mu must be held.
func (d *Disk) fire(op Op) (keep int, ok bool) {
	keep, ok = d.faults[op]
	delete(d.faults, op)
	return keep, ok
}

// OpenFile opens name, honouring os.O_CREATE and os.O_TRUNC.
func (d *Disk) OpenFile(name string, flag int, _ os.FileMode) (File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.names[name]
	if n == nil {
		if flag&os.O_CREATE == 0 {
			return nil, fs.ErrNotExist
		}
		n = &inode{}
		d.names[name] = n
	}
	if flag&os.O_TRUNC != 0 {
		n.data = nil
	}
	return &file{d: d, n: n}, nil
}

// Rename moves oldpath's entry to newpath, replacing what newpath held.
func (d *Disk) Rename(oldpath, newpath string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.fire(Rename); ok {
		return ErrInjected
	}
	n := d.names[oldpath]
	if n == nil {
		return fs.ErrNotExist
	}
	delete(d.names, oldpath)
	d.names[newpath] = n
	return nil
}

// Remove deletes name's entry, if there is one.
func (d *Disk) Remove(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.names, name)
	return nil
}

// SyncDir makes dir's live entries its durable ones.
func (d *Disk) SyncDir(dir string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	maps.DeleteFunc(d.durable, func(name string, _ *inode) bool { return filepath.Dir(name) == dir })
	for name, n := range d.names {
		if filepath.Dir(name) == dir {
			d.durable[name] = n
		}
	}
	return nil
}

// MkdirAll does nothing: every directory exists.
func (d *Disk) MkdirAll(string, os.FileMode) error { return nil }

// Crash is an honest power cut: the namespace falls back to the durable
// entries, and each file to its synced bytes plus tear unsynced ones.
func (d *Disk) Crash(tear int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.names = make(map[string]*inode, len(d.durable))
	for name, n := range d.durable {
		d.names[name] = n
		p := 0
		for p < min(len(n.data), len(n.synced)) && n.data[p] == n.synced[p] {
			p++
		}
		keep := n.synced
		if end := min(p+tear, len(n.data)); end > p {
			keep = append(n.data[:end:end], n.synced[min(end, len(n.synced)):]...)
		}
		n.data, n.synced = clone(keep), clone(keep)
	}
}

// CrashLying is Crash(0) on a device that lied about syncing name: its
// first at bytes survive, and with keepLen zeros fill it to its length.
func (d *Disk) CrashLying(name string, at int, keepLen bool) {
	d.Crash(0)
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.names[name]
	at = min(at, len(n.data))
	cut := clone(n.data[:at])
	if keepLen {
		cut = append(cut, make([]byte, len(n.data)-at)...)
	}
	n.data, n.synced = cut, clone(cut)
}

// ReadFile returns name's live bytes.
func (d *Disk) ReadFile(name string) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.names[name]
	if n == nil {
		return nil, fs.ErrNotExist
	}
	return clone(n.data), nil
}

// WriteFile stores data at name durably, entry included.
func (d *Disk) WriteFile(name string, data []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := &inode{data: clone(data), synced: clone(data)}
	d.names[name], d.durable[name] = n, n
}

func clone(b []byte) []byte { return append([]byte{}, b...) }

// file is an open handle: a cursor on an inode.
type file struct {
	d   *Disk
	n   *inode
	pos int64
}

func (f *file) Read(p []byte) (int, error) {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if f.pos >= int64(len(f.n.data)) {
		return 0, io.EOF
	}
	k := copy(p, f.n.data[f.pos:])
	f.pos += int64(k)
	return k, nil
}

func (f *file) Write(p []byte) (int, error) {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	var err error
	if keep, ok := f.d.fire(Write); ok {
		p, err = p[:min(keep, len(p))], ErrInjected
	} else if keep, ok := f.d.fire(ShortWrite); ok {
		p = p[:min(keep, len(p))]
	}
	if grow := f.pos + int64(len(p)) - int64(len(f.n.data)); grow > 0 {
		f.n.data = append(f.n.data, make([]byte, grow)...)
	}
	k := copy(f.n.data[f.pos:], p)
	f.pos += int64(k)
	return k, err
}

func (f *file) Seek(offset int64, whence int) (int64, error) {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if whence != io.SeekStart {
		return 0, errors.New("simdisk: Seek supports io.SeekStart only")
	}
	f.pos = offset
	return offset, nil
}

func (f *file) Sync() error {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if _, ok := f.d.fire(Sync); ok {
		return ErrInjected
	}
	f.n.synced = clone(f.n.data)
	return nil
}

func (f *file) Truncate(size int64) error {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	data := make([]byte, size)
	copy(data, f.n.data)
	f.n.data = data
	return nil
}

func (f *file) Close() error { return nil }
