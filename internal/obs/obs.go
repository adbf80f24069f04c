// Package obs is a lightweight, dependency-free observability layer for the
// monitoring engine: atomic counters, gauges, fixed-bucket latency
// histograms, and scrape-time gauges and counters, collected in a Registry
// that renders Prometheus text format. The Registry is the only way a series
// reaches /v1/metrics, so every series carries a HELP and a TYPE line.
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
	"slices"
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

// funcMetric is a counter or gauge whose value fn computes at scrape time.
type funcMetric struct {
	name, help, typ string
	fn              func() float64
}

// metric is the exposition surface shared by all instrument kinds.
type metric interface {
	metricName() string
	kind() string
	write(w *promWriter)
}

func (c *Counter) metricName() string    { return c.name }
func (g *Gauge) metricName() string      { return g.name }
func (h *Histogram) metricName() string  { return h.name }
func (f *funcMetric) metricName() string { return f.name }

func (c *Counter) kind() string    { return "counter" }
func (g *Gauge) kind() string      { return "gauge" }
func (h *Histogram) kind() string  { return "histogram" }
func (f *funcMetric) kind() string { return f.typ }

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
	return register(r, &Counter{name: name, help: help})
}

// Gauge registers (or retrieves) a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return register(r, &Gauge{name: name, help: help})
}

// Histogram registers (or retrieves) a histogram. A nil or empty bounds
// slice selects DefBuckets. Bounds must be strictly ascending.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not ascending at %d", name, i))
		}
	}
	return register(r, &Histogram{
		name:    name,
		help:    help,
		bounds:  bounds,
		buckets: make([]atomic.Int64, len(bounds)+1),
	})
}

// GaugeFunc registers a gauge whose value fn computes at every scrape — for
// structure sizes that are cheaper to count on demand than to maintain on
// the step path. fn runs outside the registry's lock, so it may take the
// lock of the state it reads. Registering the name again rebinds it to the
// new fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	register(r, &funcMetric{name: name, help: help, typ: "gauge", fn: fn})
}

// CounterFunc is GaugeFunc for a total that fn reads from a counter kept
// elsewhere; fn must never decrease.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	register(r, &funcMetric{name: name, help: help, typ: "counter", fn: fn})
}

// register adds m, or returns the instrument already registered under its
// name. A scrape-time instrument replaces its predecessor instead, so an
// engine attached again rebinds the value function. The registry panics on
// a name that fails the Prometheus grammar, so a bad name fails every test
// that builds the component, and on a name taken by another kind.
func register[T metric](r *Registry, m T) T {
	r.mu.Lock()
	defer r.mu.Unlock()
	name := m.metricName()
	old, ok := r.byName[name]
	if !ok {
		if !validMetricName(name) {
			panic(fmt.Sprintf("obs: invalid metric name %q", name))
		}
		r.byName[name] = m
		r.ordered = append(r.ordered, m)
		return m
	}
	prev, ok := old.(T)
	if !ok || prev.kind() != m.kind() {
		panic(fmt.Sprintf("obs: %s already registered as %T %s", name, old, old.kind()))
	}
	if _, rebind := any(m).(*funcMetric); !rebind {
		return prev
	}
	r.ordered[slices.Index(r.ordered, old)] = m
	r.byName[name] = m
	return m
}

// validMetricName checks the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
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
