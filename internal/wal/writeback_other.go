//go:build !(linux && (amd64 || arm64))

package wal

// StartWriteback is a no-op off linux/amd64 and linux/arm64: the log sends
// no writeback hint there, and the closing fsync does the whole write.
func (osFile) StartWriteback(off, n int64) {}
