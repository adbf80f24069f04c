package gen

import "strconv"

// GraphBody renders the JSON body of POST /v1/queries and POST /v1/streams:
// {"graph":{"vertices":[{"id":0,"label":1},…],"edges":[{"u":0,"v":1,"label":0},…]}}
// with vertices and edges in ascending order.
func GraphBody(g *Graph) []byte {
	b := []byte(`{"graph":{"vertices":[`)
	for i, v := range g.VertexIDs() {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"id":`...)
		b = strconv.AppendInt(b, int64(v), 10)
		b = append(b, `,"label":`...)
		b = strconv.AppendUint(b, uint64(g.Label(v)), 10)
		b = append(b, '}')
	}
	b = append(b, `],"edges":[`...)
	for i, e := range g.Edges() {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"u":`...)
		b = strconv.AppendInt(b, int64(e.U), 10)
		b = append(b, `,"v":`...)
		b = strconv.AppendInt(b, int64(e.V), 10)
		b = append(b, `,"label":`...)
		b = strconv.AppendUint(b, uint64(e.Label), 10)
		b = append(b, '}')
	}
	return append(b, `]}}`...)
}

// StreamOps is one stream's change set within a timestamp.
type StreamOps struct {
	Stream int
	Ops    []Op
}

// AppendFrame appends one canonical /v1/ingest NDJSON frame (one timestamp)
// and its newline:
// {"changes":[{"stream":0,"ops":[{"op":"ins","u":1,"v":2,"ul":3,"vl":4,"el":5},{"op":"del","u":1,"v":2}]}]}
// Streams with no ops this timestamp are left out.
func AppendFrame(b []byte, step []StreamOps) []byte {
	b = append(b, `{"changes":[`...)
	first := true
	for _, so := range step {
		if len(so.Ops) == 0 {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = append(b, `{"stream":`...)
		b = strconv.AppendInt(b, int64(so.Stream), 10)
		b = append(b, `,"ops":[`...)
		for i, op := range so.Ops {
			if i > 0 {
				b = append(b, ',')
			}
			if op.Ins {
				b = append(b, `{"op":"ins","u":`...)
			} else {
				b = append(b, `{"op":"del","u":`...)
			}
			b = strconv.AppendInt(b, int64(op.U), 10)
			b = append(b, `,"v":`...)
			b = strconv.AppendInt(b, int64(op.V), 10)
			if op.Ins {
				b = append(b, `,"ul":`...)
				b = strconv.AppendUint(b, uint64(op.UL), 10)
				b = append(b, `,"vl":`...)
				b = strconv.AppendUint(b, uint64(op.VL), 10)
				b = append(b, `,"el":`...)
				b = strconv.AppendUint(b, uint64(op.EL), 10)
			}
			b = append(b, '}')
		}
		b = append(b, `]}`...)
	}
	return append(b, "]}\n"...)
}
