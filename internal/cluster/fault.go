package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// ErrInjected marks a failure the fault transport manufactured. It behaves
// like any transport failure (retryable, counts against breakers), so the
// layers above exercise their real error paths — the network analogue of
// the disk faults internal/simdisk injects.
var ErrInjected = errors.New("cluster: injected network fault")

// FaultTransport wraps a Transport with deterministic (seeded) network
// misbehavior: whole-address partitions, probabilistic message drops, and
// added latency. It injects on the way in — a dropped call never reaches the
// inner transport, exactly as a lost packet never reaches the peer.
type FaultTransport struct {
	next  Transport
	sleep func(time.Duration) // injectable for tests; time.Sleep by default

	mu          sync.Mutex
	rng         *rand.Rand
	partitioned map[string]bool
	dropProb    float64
	delay       time.Duration
}

// NewFaultTransport wraps next with a fault layer seeded for reproducibility.
func NewFaultTransport(next Transport, seed int64) *FaultTransport {
	return &FaultTransport{
		next:        next,
		sleep:       time.Sleep,
		rng:         rand.New(rand.NewSource(seed)),
		partitioned: make(map[string]bool),
	}
}

// Partition makes the given addresses unreachable until healed.
func (f *FaultTransport) Partition(addrs ...string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, a := range addrs {
		f.partitioned[a] = true
	}
}

// Heal reconnects the given addresses (all of them when none are named).
func (f *FaultTransport) Heal(addrs ...string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(addrs) == 0 {
		f.partitioned = make(map[string]bool)
		return
	}
	for _, a := range addrs {
		delete(f.partitioned, a)
	}
}

// Partitioned reports whether addr is currently cut off.
func (f *FaultTransport) Partitioned(addr string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.partitioned[addr]
}

// SetDrop makes each call fail with probability p (0 disables).
func (f *FaultTransport) SetDrop(p float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dropProb = p
}

// SetDelay adds fixed latency to every delivered call (0 disables).
func (f *FaultTransport) SetDelay(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.delay = d
}

// SetSleep overrides how delays are waited out (tests pass a stub).
func (f *FaultTransport) SetSleep(sleep func(time.Duration)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sleep = sleep
}

func (f *FaultTransport) Do(ctx context.Context, addr, method, path string, in, out any) (http.Header, error) {
	f.mu.Lock()
	cut := f.partitioned[addr]
	drop := f.dropProb > 0 && f.rng.Float64() < f.dropProb
	delay := f.delay
	sleep := f.sleep
	f.mu.Unlock()
	if cut {
		return nil, fmt.Errorf("%w: %s is partitioned", ErrInjected, addr)
	}
	if drop {
		return nil, fmt.Errorf("%w: dropped %s %s to %s", ErrInjected, method, path, addr)
	}
	if delay > 0 {
		sleep(delay)
	}
	return f.next.Do(ctx, addr, method, path, in, out)
}
