package obs

// Collector is implemented by components (filters, monitors) that can report
// point-in-time samples — typically structure sizes that are cheaper to
// compute on demand than to maintain as registered gauges.
//
// CollectMetrics must not mutate the collector's observable state: it is
// invoked on read paths that may run concurrently with other readers (see
// the concurrency contract in internal/server). Emitting the same name more
// than once is allowed; Gather sums duplicates.
type Collector interface {
	CollectMetrics(emit func(name string, value float64))
}

// Gather runs c and returns its samples summed by name. Samples with
// invalid Prometheus names are dropped.
func Gather(c Collector) map[string]float64 {
	out := make(map[string]float64)
	c.CollectMetrics(func(name string, value float64) {
		if !ValidMetricName(name) {
			return
		}
		out[name] += value
	})
	return out
}
