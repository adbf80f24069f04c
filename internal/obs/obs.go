// Package obs is a lightweight, dependency-free observability layer for the
// monitoring engine: atomic counters, gauges, and fixed-bucket latency
// histograms collected in a Registry that renders Prometheus text format.
//
// Instruments are safe for concurrent use. Streaming-graph-search systems
// need continuous per-timestamp telemetry (selectivity, latency, structure
// sizes) because filter effectiveness drifts as the stream evolves; this
// package is the measurement substrate that the engine, the join filters,
// and the HTTP server record into.
package obs

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta, which must be non-negative.
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic(fmt.Sprintf("obs: negative delta %d on counter %s", delta, c.name))
	}
	c.v.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous float64 metric.
type Gauge struct {
	name, help string
	bits       atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefBuckets are the default latency buckets in seconds, spanning 1µs–10s —
// wide enough for both per-timestamp filter maintenance (typically µs–ms)
// and full re-mining filters such as gIndex (seconds).
var DefBuckets = []float64{
	1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1, 5, 10,
}

// Histogram is a fixed-bucket histogram with cumulative Prometheus
// exposition. Bucket bounds are upper bounds in ascending order; an implicit
// +Inf bucket is always present.
type Histogram struct {
	name, help string
	bounds     []float64
	buckets    []atomic.Int64 // len(bounds)+1, last is +Inf
	count      atomic.Int64
	sumBits    atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// metric is the exposition surface shared by all instrument kinds.
type metric interface {
	metricName() string
	write(w *promWriter)
}

func (c *Counter) metricName() string   { return c.name }
func (g *Gauge) metricName() string     { return g.name }
func (h *Histogram) metricName() string { return h.name }

// Registry holds named instruments. Registration methods return the existing
// instrument when the name is already registered with the same kind, and
// panic on a kind mismatch (a programming error).
type Registry struct {
	mu      sync.Mutex
	ordered []metric
	byName  map[string]metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]metric)}
}

// Counter registers (or retrieves) a counter.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		c, ok := m.(*Counter)
		if !ok {
			panic(fmt.Sprintf("obs: %s already registered as %T", name, m))
		}
		return c
	}
	c := &Counter{name: name, help: help}
	r.register(c)
	return c
}

// Gauge registers (or retrieves) a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		g, ok := m.(*Gauge)
		if !ok {
			panic(fmt.Sprintf("obs: %s already registered as %T", name, m))
		}
		return g
	}
	g := &Gauge{name: name, help: help}
	r.register(g)
	return g
}

// Histogram registers (or retrieves) a histogram. A nil or empty bounds
// slice selects DefBuckets. Bounds must be strictly ascending.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		h, ok := m.(*Histogram)
		if !ok {
			panic(fmt.Sprintf("obs: %s already registered as %T", name, m))
		}
		return h
	}
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not ascending at %d", name, i))
		}
	}
	h := &Histogram{
		name:    name,
		help:    help,
		bounds:  bounds,
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
	r.register(h)
	return h
}

func (r *Registry) register(m metric) {
	if !ValidMetricName(m.metricName()) {
		panic(fmt.Sprintf("obs: invalid metric name %q", m.metricName()))
	}
	r.byName[m.metricName()] = m
	r.ordered = append(r.ordered, m)
}

// ValidMetricName checks the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*. The registry panics on names that fail it, so a
// bad registered name fails every test that builds the component, and
// Gather drops collector samples that fail it.
func ValidMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}
