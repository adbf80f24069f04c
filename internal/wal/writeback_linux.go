//go:build linux && (amd64 || arm64)

package wal

import "syscall"

// syncFileRangeWrite is SYNC_FILE_RANGE_WRITE, which package syscall does
// not name: start writeback of the range's dirty pages, wait for nothing.
const syncFileRangeWrite = 0x2

// StartWriteback asks the kernel to start writing [off, off+n) to the device.
// An error (a file system that does not support it) only means the closing
// fsync does all the work, as it does without the hint.
func (f osFile) StartWriteback(off, n int64) {
	_ = syscall.SyncFileRange(int(f.Fd()), off, n, syncFileRangeWrite)
}
