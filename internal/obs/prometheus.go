package obs

import (
	"bufio"
	"io"
	"strconv"
)

// promWriter accumulates Prometheus text-format lines.
type promWriter struct {
	w   *bufio.Writer
	err error
}

func (p *promWriter) line(parts ...string) {
	if p.err != nil {
		return
	}
	for _, s := range parts {
		if _, p.err = p.w.WriteString(s); p.err != nil {
			return
		}
	}
	p.err = p.w.WriteByte('\n')
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func formatInt(v int64) string { return strconv.FormatInt(v, 10) }

func (p *promWriter) header(name, help, kind string) {
	if help != "" {
		p.line("# HELP ", name, " ", help)
	}
	p.line("# TYPE ", name, " ", kind)
}

func (c *Counter) write(p *promWriter) {
	p.header(c.name, c.help, c.kind())
	p.line(c.name, " ", formatInt(c.Value()))
}

func (g *Gauge) write(p *promWriter) {
	p.header(g.name, g.help, g.kind())
	p.line(g.name, " ", formatFloat(g.Value()))
}

func (f *funcMetric) write(p *promWriter) {
	p.header(f.name, f.help, f.typ)
	p.line(f.name, " ", formatFloat(f.fn()))
}

func (h *Histogram) write(p *promWriter) {
	p.header(h.name, h.help, h.kind())
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += h.buckets[i].Load()
		p.line(h.name, `_bucket{le="`, formatFloat(bound), `"} `, formatInt(cum))
	}
	cum += h.buckets[len(h.bounds)].Load()
	p.line(h.name, `_bucket{le="+Inf"} `, formatInt(cum))
	p.line(h.name, "_sum ", formatFloat(h.Sum()))
	p.line(h.name, "_count ", formatInt(h.Count()))
}

// WritePrometheus renders every registered instrument in registration order
// as Prometheus text format (version 0.0.4). Scrape-time instruments call
// their value functions here, after the registry's lock is released.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	metrics := make([]metric, len(r.ordered))
	copy(metrics, r.ordered)
	r.mu.Unlock()
	p := &promWriter{w: bufio.NewWriter(w)}
	for _, m := range metrics {
		m.write(p)
	}
	if p.err != nil {
		return p.err
	}
	return p.w.Flush()
}
