package server

import (
	"fmt"

	"nntstream/internal/graph"
)

// The ingest wire format: NDJSON step frames, one line per timestamp,
// mirroring the wal.KindStepAll record (per-stream change sets). The frame
// is canonical JSON — fixed key order, no nulls, integers only — so the hot
// decode loop can be a single forward scan instead of a reflective decoder:
//
//	{"changes":[{"stream":0,"ops":[
//	    {"op":"ins","u":1,"v":2,"ul":3,"vl":4,"el":5},
//	    {"op":"del","u":1,"v":2}]}]}
//
// Insignificant ASCII whitespace is allowed between tokens; keys must appear
// exactly once, in the order above ("ul"/"vl"/"el" only on "ins"). Every
// frame is still valid JSON, so ordinary tooling can produce and inspect
// batches; the canonical-order restriction is what the zero-allocation
// guarantee is bought with, the same trade the WAL's binary encoding makes.
//
// IngestDecoder owns all backing storage and reuses it across DecodeStep
// calls: once warm, decoding a frame performs no allocations (gated by
// TestIngestDecodeZeroAlloc).

// IngestStep is one decoded frame: the per-stream change sets of a single
// timestamp. Groups (and their Ops) alias decoder-owned storage, valid only
// until the next DecodeStep call.
type IngestStep struct {
	Groups []IngestGroup
}

// IngestGroup is one stream's change set within a step frame.
type IngestGroup struct {
	Stream int64
	Ops    graph.ChangeSet
}

// OpCount returns the total number of edge operations in the step.
func (s *IngestStep) OpCount() int {
	n := 0
	for i := range s.Groups {
		n += len(s.Groups[i].Ops)
	}
	return n
}

// IngestDecoder decodes canonical NDJSON step frames. The zero value is
// ready to use; it is not safe for concurrent use.
type IngestDecoder struct {
	step IngestStep
	buf  []byte
	pos  int
}

// ingestSyntaxError reports where in the line a frame stopped being
// canonical. Construction is the cold path: DecodeStep on a valid frame
// never builds one.
type ingestSyntaxError struct {
	off int
	msg string
}

func (e *ingestSyntaxError) Error() string {
	return fmt.Sprintf("byte %d: %s", e.off, e.msg)
}

// DecodeStep parses one frame (a single NDJSON line, without its trailing
// newline). The returned step is valid until the next call.
func (d *IngestDecoder) DecodeStep(line []byte) (*IngestStep, error) {
	d.buf = line
	d.pos = 0
	d.step.Groups = d.step.Groups[:0]

	if !d.lit(`{"changes":`) {
		return nil, d.syntaxErr(`frame must open with {"changes":`)
	}
	d.ws()
	if !d.byte('[') {
		return nil, d.syntaxErr(`"changes" must be an array`)
	}
	d.ws()
	if !d.byte(']') {
		for {
			if err := d.group(); err != nil {
				return nil, err
			}
			d.ws()
			if d.byte(',') {
				d.ws()
				continue
			}
			if d.byte(']') {
				break
			}
			return nil, d.syntaxErr(`want "," or "]" after change group`)
		}
	}
	d.ws()
	if !d.byte('}') {
		return nil, d.syntaxErr(`want "}" closing the frame`)
	}
	d.ws()
	if d.pos != len(d.buf) {
		return nil, d.syntaxErr("trailing bytes after frame")
	}
	return &d.step, nil
}

// group parses one {"stream":S,"ops":[...]} object into the next reused
// IngestGroup slot.
func (d *IngestDecoder) group() error {
	g := d.nextGroup()
	if !d.lit(`{"stream":`) {
		return d.syntaxErr(`change group must open with {"stream":`)
	}
	d.ws()
	s, ok := d.parseInt()
	if !ok {
		return d.syntaxErr(`"stream" must be an integer`)
	}
	g.Stream = s
	d.ws()
	if !d.byte(',') {
		return d.syntaxErr(`want "," after "stream"`)
	}
	d.ws()
	if !d.lit(`"ops":`) {
		return d.syntaxErr(`want "ops" after "stream"`)
	}
	d.ws()
	if !d.byte('[') {
		return d.syntaxErr(`"ops" must be an array`)
	}
	d.ws()
	if d.byte(']') {
		// An empty change set is legal: the stream participates in the
		// timestamp without changing.
	} else {
		for {
			if err := d.op(g); err != nil {
				return err
			}
			d.ws()
			if d.byte(',') {
				d.ws()
				continue
			}
			if d.byte(']') {
				break
			}
			return d.syntaxErr(`want "," or "]" after op`)
		}
	}
	d.ws()
	if !d.byte('}') {
		return d.syntaxErr(`want "}" closing change group`)
	}
	return nil
}

// op parses one edge operation object and appends it to g.Ops.
func (d *IngestDecoder) op(g *IngestGroup) error {
	if !d.lit(`{"op":"`) {
		return d.syntaxErr(`op must open with {"op":"`)
	}
	var kind graph.OpKind
	switch {
	case d.lit(`ins"`):
		kind = graph.OpInsert
	case d.lit(`del"`):
		kind = graph.OpDelete
	default:
		return d.syntaxErr(`"op" must be "ins" or "del"`)
	}
	op := nextOp(g)
	op.Kind = kind
	u, ok := d.field(`"u":`)
	if !ok {
		return d.syntaxErr(`want integer "u" after "op"`)
	}
	v, ok := d.field(`"v":`)
	if !ok {
		return d.syntaxErr(`want integer "v" after "u"`)
	}
	if u < minVertexID || u > maxVertexID || v < minVertexID || v > maxVertexID {
		return d.syntaxErr("vertex id out of range")
	}
	op.U = graph.VertexID(u)
	op.V = graph.VertexID(v)
	if kind == graph.OpInsert {
		ul, ok := d.field(`"ul":`)
		if !ok {
			return d.syntaxErr(`want integer "ul" after "v"`)
		}
		vl, ok := d.field(`"vl":`)
		if !ok {
			return d.syntaxErr(`want integer "vl" after "ul"`)
		}
		el, ok := d.field(`"el":`)
		if !ok {
			return d.syntaxErr(`want integer "el" after "vl"`)
		}
		if ul < 0 || ul > maxLabel || vl < 0 || vl > maxLabel || el < 0 || el > maxLabel {
			return d.syntaxErr("label out of range")
		}
		op.ULabel = graph.Label(ul)
		op.VLabel = graph.Label(vl)
		op.EdgeLabel = graph.Label(el)
	}
	d.ws()
	if !d.byte('}') {
		return d.syntaxErr(`want "}" closing op`)
	}
	return nil
}

const (
	minVertexID = -1 << 31
	maxVertexID = 1<<31 - 1
	maxLabel    = 1<<16 - 1
)

// field consumes `,` ws key ws int — the shape of every op field after the
// kind — and returns the integer.
//
//nnt:hotpath
func (d *IngestDecoder) field(key string) (int64, bool) {
	d.ws()
	if !d.byte(',') {
		return 0, false
	}
	d.ws()
	if !d.lit(key) {
		return 0, false
	}
	d.ws()
	return d.parseInt()
}

// nextGroup extends the reused Groups slice by one slot, recycling the
// slot's Ops capacity when the slice is re-growing over old storage.
func (d *IngestDecoder) nextGroup() *IngestGroup {
	n := len(d.step.Groups)
	if n < cap(d.step.Groups) {
		d.step.Groups = d.step.Groups[:n+1]
	} else {
		d.step.Groups = append(d.step.Groups, IngestGroup{})
	}
	g := &d.step.Groups[n]
	g.Stream = 0
	g.Ops = g.Ops[:0]
	return g
}

// nextOp extends g.Ops by one zeroed slot, recycling capacity. The append
// re-grows only until the decoder is warm, so the steady state allocates
// nothing (the IngestDecode benchmark pins it at 0 allocs/op).
func nextOp(g *IngestGroup) *graph.ChangeOp {
	n := len(g.Ops)
	if n < cap(g.Ops) {
		g.Ops = g.Ops[:n+1]
	} else {
		g.Ops = append(g.Ops, graph.ChangeOp{})
	}
	op := &g.Ops[n]
	*op = graph.ChangeOp{}
	return op
}

// ws skips insignificant JSON whitespace.
//
//nnt:hotpath
func (d *IngestDecoder) ws() {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\r':
			d.pos++
		default:
			return
		}
	}
}

// byte consumes c if it is next.
//
//nnt:hotpath
func (d *IngestDecoder) byte(c byte) bool {
	if d.pos < len(d.buf) && d.buf[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// lit consumes the exact literal s if it is next.
//
//nnt:hotpath
func (d *IngestDecoder) lit(s string) bool {
	if len(d.buf)-d.pos < len(s) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if d.buf[d.pos+i] != s[i] {
			return false
		}
	}
	d.pos += len(s)
	return true
}

// parseInt consumes a JSON integer (optional leading minus, no exponent, no
// fraction, no leading zeros beyond a lone 0).
//
//nnt:hotpath
func (d *IngestDecoder) parseInt() (int64, bool) {
	neg := false
	if d.pos < len(d.buf) && d.buf[d.pos] == '-' {
		neg = true
		d.pos++
	}
	start := d.pos
	var v int64
	for d.pos < len(d.buf) {
		c := d.buf[d.pos]
		if c < '0' || c > '9' {
			break
		}
		if v > (1<<62)/10 {
			return 0, false // overflow: far beyond any id or label
		}
		v = v*10 + int64(c-'0')
		d.pos++
	}
	if d.pos == start {
		return 0, false
	}
	if d.buf[start] == '0' && d.pos-start > 1 {
		return 0, false // leading zero is not canonical JSON
	}
	if neg {
		v = -v
	}
	return v, true
}

// syntaxErr builds the cold-path error carrying the current offset.
func (d *IngestDecoder) syntaxErr(msg string) error {
	return &ingestSyntaxError{off: d.pos, msg: msg}
}
