// Package locksafe is the fixture for the locksafe analyzer: release on all
// paths, no blocking I/O under a hot-path RWMutex.
package locksafe

import (
	"os"
	"sync"
	"time"

	"nntstream/internal/wal"
)

type engine struct {
	mu sync.Mutex
	n  int
}

type store struct {
	mu  sync.RWMutex
	log *wal.Log
	m   map[string]int
}

func (e *engine) goodDefer() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.n++
}

func (e *engine) goodStraightLine() {
	e.mu.Lock()
	e.n++
	e.mu.Unlock()
}

func (e *engine) missingUnlock() {
	e.mu.Lock() // want `e.mu.Lock\(\) has no matching release`
	e.n++
}

func (e *engine) earlyReturn(cond bool) {
	e.mu.Lock() // want `e.mu.Lock\(\) is not released on every path`
	if cond {
		return
	}
	e.n++
	e.mu.Unlock()
}

func (e *engine) goodLoopBreak(limit int) {
	e.mu.Lock()
	for i := 0; i < limit; i++ {
		if i > 10 {
			break // unlabeled: stays inside the critical section
		}
		e.n++
	}
	e.mu.Unlock()
}

func (s *store) goodRead(k string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m[k]
}

func (s *store) fsyncUnderRead() {
	s.mu.RLock()
	s.log.Sync() // want `calling \(\*wal\.Log\)\.Sync while holding hot-path lock s\.mu`
	s.mu.RUnlock()
}

func (s *store) sleepUnderWrite() {
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(time.Millisecond) // want `calling time\.Sleep while holding hot-path lock s\.mu`
}

func (s *store) readFileUnderLock(path string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return os.ReadFile(path) // want `calling os\.ReadFile while holding hot-path lock s\.mu`
}

func (s *store) goodSyncOutside() {
	s.mu.Lock()
	s.m["k"]++
	s.mu.Unlock()
	s.log.Sync()
}
