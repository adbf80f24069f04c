package wal

import (
	"encoding/binary"
	"fmt"
	"sort"

	"nntstream/internal/graph"
)

// Kind discriminates the engine mutations a WAL record can carry. The log
// records logical operations (not physical page changes): each record is one
// engine mutation, so replaying the records in LSN order against an empty
// engine reconstructs the exact pre-crash state.
type Kind uint8

const (
	// KindAddQuery registers a query pattern (ID + graph).
	KindAddQuery Kind = 1
	// KindRemoveQuery deregisters a query pattern (ID).
	KindRemoveQuery Kind = 2
	// KindAddStream registers a stream with its starting graph (ID + graph).
	KindAddStream Kind = 3
	// KindStepAll advances one global timestamp (per-stream change sets).
	KindStepAll Kind = 4
)

func (k Kind) String() string {
	switch k {
	case KindAddQuery:
		return "add-query"
	case KindRemoveQuery:
		return "remove-query"
	case KindAddStream:
		return "add-stream"
	case KindStepAll:
		return "step-all"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Record is one logical engine mutation. IDs are plain integers so the log
// stays independent of the engine package (internal/core depends on wal, not
// the other way around).
type Record struct {
	// LSN is the log sequence number, assigned by Log.Append: strictly
	// increasing, never reused, monotonic across checkpoint-driven log
	// resets. The reader treats a non-increasing LSN as corruption.
	LSN uint64
	// Kind selects which of the remaining fields are meaningful.
	Kind Kind
	// ID is the query/stream ID for the single-entity kinds.
	ID int64
	// Graph is the query pattern (KindAddQuery) or starting stream graph
	// (KindAddStream).
	Graph *graph.Graph
	// Changes holds the per-stream change sets of a KindStepAll record.
	Changes map[int64]graph.ChangeSet
}

// EncodeRecord serializes a record (LSN included, framing excluded) in the
// log's deterministic payload encoding — the wire form replication ships
// between nodes, so a shipped record round-trips bit-identically into the
// replica's log.
func EncodeRecord(r Record) ([]byte, error) {
	return appendPayload(nil, r)
}

// DecodeRecord parses a payload produced by EncodeRecord (or read out of a
// log frame). Any structural defect is an error.
func DecodeRecord(data []byte) (Record, error) {
	return decodePayload(data)
}

// appendPayload serializes the record (without framing) onto buf. Encoding is
// varint-based: collections are length-prefixed, vertex IDs use zig-zag
// varints (signed), labels and counts unsigned varints. Map entries are
// emitted in sorted key order so the encoding is deterministic.
func appendPayload(buf []byte, r Record) ([]byte, error) {
	buf = binary.AppendUvarint(buf, r.LSN)
	buf = append(buf, byte(r.Kind))
	switch r.Kind {
	case KindAddQuery, KindAddStream:
		buf = binary.AppendVarint(buf, r.ID)
		if r.Graph == nil {
			return nil, fmt.Errorf("wal: %s record without graph", r.Kind)
		}
		buf = appendGraph(buf, r.Graph)
	case KindRemoveQuery:
		buf = binary.AppendVarint(buf, r.ID)
	case KindStepAll:
		ids := make([]int64, 0, len(r.Changes))
		for id := range r.Changes {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		buf = binary.AppendUvarint(buf, uint64(len(ids)))
		for _, id := range ids {
			buf = binary.AppendVarint(buf, id)
			buf = appendChangeSet(buf, r.Changes[id])
		}
	default:
		return nil, fmt.Errorf("wal: cannot encode record kind %d", r.Kind)
	}
	return buf, nil
}

func appendGraph(buf []byte, g *graph.Graph) []byte {
	vids := g.VertexIDs() // ascending order
	buf = binary.AppendUvarint(buf, uint64(len(vids)))
	for _, v := range vids {
		buf = binary.AppendVarint(buf, int64(v))
		buf = binary.AppendUvarint(buf, uint64(g.MustVertexLabel(v)))
	}
	edges := g.Edges()
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i].Canonical(), edges[j].Canonical()
		if a.U != b.U {
			return a.U < b.U
		}
		return a.V < b.V
	})
	buf = binary.AppendUvarint(buf, uint64(len(edges)))
	for _, e := range edges {
		c := e.Canonical()
		buf = binary.AppendVarint(buf, int64(c.U))
		buf = binary.AppendVarint(buf, int64(c.V))
		buf = binary.AppendUvarint(buf, uint64(c.Label))
	}
	return buf
}

func appendChangeSet(buf []byte, cs graph.ChangeSet) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(cs)))
	for _, op := range cs {
		buf = append(buf, byte(op.Kind))
		buf = binary.AppendVarint(buf, int64(op.U))
		buf = binary.AppendVarint(buf, int64(op.V))
		if op.Kind == graph.OpInsert {
			buf = binary.AppendUvarint(buf, uint64(op.ULabel))
			buf = binary.AppendUvarint(buf, uint64(op.VLabel))
			buf = binary.AppendUvarint(buf, uint64(op.EdgeLabel))
		}
	}
	return buf
}

// payloadDecoder folds the error handling of sequential varint reads.
type payloadDecoder struct {
	buf []byte
	pos int
	err error
}

func (d *payloadDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.err = fmt.Errorf("wal: truncated uvarint at payload offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

func (d *payloadDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		d.err = fmt.Errorf("wal: truncated varint at payload offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

func (d *payloadDecoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.buf) {
		d.err = fmt.Errorf("wal: truncated byte at payload offset %d", d.pos)
		return 0
	}
	b := d.buf[d.pos]
	d.pos++
	return b
}

func (d *payloadDecoder) graph() *graph.Graph {
	g := graph.New()
	nv := d.uvarint()
	for i := uint64(0); i < nv && d.err == nil; i++ {
		v := graph.VertexID(d.varint())
		l := graph.Label(d.uvarint())
		if d.err == nil {
			if err := g.AddVertex(v, l); err != nil {
				d.err = err
			}
		}
	}
	ne := d.uvarint()
	for i := uint64(0); i < ne && d.err == nil; i++ {
		u := graph.VertexID(d.varint())
		v := graph.VertexID(d.varint())
		l := graph.Label(d.uvarint())
		if d.err == nil {
			if err := g.AddEdge(u, v, l); err != nil {
				d.err = err
			}
		}
	}
	return g
}

func (d *payloadDecoder) changeSet() graph.ChangeSet {
	n := d.uvarint()
	var cs graph.ChangeSet
	for i := uint64(0); i < n && d.err == nil; i++ {
		kind := graph.OpKind(d.byte())
		op := graph.ChangeOp{
			Kind: kind,
			U:    graph.VertexID(d.varint()),
			V:    graph.VertexID(d.varint()),
		}
		switch kind {
		case graph.OpInsert:
			op.ULabel = graph.Label(d.uvarint())
			op.VLabel = graph.Label(d.uvarint())
			op.EdgeLabel = graph.Label(d.uvarint())
		case graph.OpDelete:
		default:
			d.err = fmt.Errorf("wal: unknown change op kind %d", kind)
		}
		cs = append(cs, op)
	}
	return cs
}

// decodePayload parses one record payload. Any structural defect (truncated
// varint, unknown kind, trailing bytes) is an error; the reader treats it as
// corruption and truncates the log there.
func decodePayload(payload []byte) (Record, error) {
	d := &payloadDecoder{buf: payload}
	var r Record
	r.LSN = d.uvarint()
	r.Kind = Kind(d.byte())
	switch r.Kind {
	case KindAddQuery, KindAddStream:
		r.ID = d.varint()
		r.Graph = d.graph()
	case KindRemoveQuery:
		r.ID = d.varint()
	case KindStepAll:
		n := d.uvarint()
		// Each entry takes at least two bytes, so the rest of the payload
		// bounds the entries a valid record holds; a corrupt count must not
		// size the map.
		r.Changes = make(map[int64]graph.ChangeSet, min(n, uint64(len(payload)-d.pos)))
		for i := uint64(0); i < n && d.err == nil; i++ {
			id := d.varint()
			cs := d.changeSet()
			if _, dup := r.Changes[id]; dup {
				d.err = fmt.Errorf("wal: duplicate stream %d in step record", id)
			}
			r.Changes[id] = cs
		}
	default:
		if d.err == nil {
			d.err = fmt.Errorf("wal: unknown record kind %d", r.Kind)
		}
	}
	if d.err != nil {
		return Record{}, d.err
	}
	if d.pos != len(payload) {
		return Record{}, fmt.Errorf("wal: %d trailing bytes after record", len(payload)-d.pos)
	}
	return r, nil
}
