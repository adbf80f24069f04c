// Package seeded deliberately violates nntlint invariants; the driver test
// asserts a nonzero exit and per-analyzer findings on this package.
package seeded

import (
	"errors"
	"os"
	"sync"
)

var errSeeded = errors.New("seeded")

type box struct {
	mu sync.Mutex
	n  map[string]int
}

type cache struct {
	mu   sync.RWMutex
	seen map[string]bool
}

func (b *box) leakLock() {
	b.mu.Lock() // blockhold: no matching release
	b.n["k"]++
}

func (b *box) earlyExit(stop bool) {
	b.mu.Lock() // blockhold: the early return skips the unlock
	if stop {
		return
	}
	b.n["k"]++
	b.mu.Unlock()
}

func (c *cache) statUnderRead(path string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, err := os.Stat(path) // blockhold: file I/O under a hot-path RWMutex
	return err == nil && c.seen[path]
}

func (b *box) unsortedKeys() []string {
	var keys []string
	for k := range b.n {
		keys = append(keys, k) // mapdeterm: no following sort
	}
	return keys
}

func isSeeded(err error) bool {
	return err == errSeeded // sentinelerr: == on a module sentinel
}
