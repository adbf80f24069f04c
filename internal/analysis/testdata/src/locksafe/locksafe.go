package locksafe

import (
	"os"
	"sync"
	"time"

	"nntstream/internal/wal"
)

// tally holds a plain mutex: every acquire must be released on all paths,
// and file and WAL I/O under it are allowed.
type tally struct {
	mu  sync.Mutex
	n   int
	log *wal.Log
}

// store holds a hot-path RWMutex: no direct file or WAL I/O under it.
type store struct {
	mu  sync.RWMutex
	log *wal.Log
	fs  wal.FS
	m   map[string]int
}

func (t *tally) goodDefer() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.n++
}

func (t *tally) goodStraightLine() {
	t.mu.Lock()
	t.n++
	t.mu.Unlock()
}

func (t *tally) missingUnlock() {
	t.mu.Lock() // want `t.mu.Lock\(\) has no matching release`
	t.n++
}

func (t *tally) earlyReturn(cond bool) {
	t.mu.Lock() // want `t.mu.Lock\(\) is not released on every path`
	if cond {
		return
	}
	t.n++
	t.mu.Unlock()
}

// goodUnlockBeforeReturn releases on the early exit itself.
func (t *tally) goodUnlockBeforeReturn(cond bool) {
	t.mu.Lock()
	if cond {
		t.mu.Unlock()
		return
	}
	t.n++
	t.mu.Unlock()
}

// earlyReturnBeforeRelock leaks the first acquire on the early return: the
// later deferred release covers only the acquire it follows.
func (t *tally) earlyReturnBeforeRelock(cond bool) {
	t.mu.Lock() // want `t.mu.Lock\(\) is not released on every path`
	if cond {
		return
	}
	t.n++
	t.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.n++
}

// earlyReturnBeforeDefer returns before the deferred release is registered.
func (t *tally) earlyReturnBeforeDefer(cond bool) {
	t.mu.Lock() // want `t.mu.Lock\(\) is not released on every path`
	if cond {
		return
	}
	defer t.mu.Unlock()
	t.n++
}

func (t *tally) goodLoopBreak(limit int) {
	t.mu.Lock()
	for i := 0; i < limit; i++ {
		if i > 10 {
			break // unlabeled: stays inside the critical section
		}
		t.n++
	}
	t.mu.Unlock()
}

// goodSyncUnderMutex fsyncs under a plain mutex, like the WAL's commit path.
func (t *tally) goodSyncUnderMutex() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.log.Sync()
}

// leakInLiteral is a function literal at package level: its body is a
// scope like any other.
var leakInLiteral = func(t *tally) {
	t.mu.Lock() // want `t.mu.Lock\(\) has no matching release`
	t.n++
}

func (s *store) goodRead(k string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m[k]
}

func (s *store) fsyncUnderRead() {
	s.mu.RLock()
	s.log.Sync() // want `calling \(\*wal\.Log\)\.Sync while holding hot-path lock s\.mu\.RLock\(\)`
	s.mu.RUnlock()
}

// withdrawUnderWrite undoes an append under the hot-path lock: the undo
// cuts the file and, under SyncAlways, fsyncs it.
func (s *store) withdrawUnderWrite() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log.Withdraw() // want `calling \(\*wal\.Log\)\.Withdraw while holding hot-path lock s\.mu\.Lock\(\)`
}

func (s *store) sleepUnderWrite() {
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(time.Millisecond) // want `calling time\.Sleep while holding s\.mu\.Lock\(\)`
}

func (s *store) readFileUnderLock(path string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return os.ReadFile(path) // want `calling os\.ReadFile while holding hot-path lock s\.mu\.Lock\(\)`
}

func (s *store) syncDirUnderRead(dir string) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.fs.SyncDir(dir) // want `calling \(wal\.FS\)\.SyncDir while holding hot-path lock s\.mu\.RLock\(\)`
}

func (s *store) goodSyncOutside() {
	s.mu.Lock()
	s.m["k"]++
	s.mu.Unlock()
	s.log.Sync()
}
