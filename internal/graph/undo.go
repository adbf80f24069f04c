package graph

// Undo records the primitive mutations an ApplyUndoable made to one graph,
// oldest first, so that Revert can take them back. It lets a caller stage a
// change set on the live graph at O(|Δ|) cost instead of validating it on an
// O(|G|) clone.
type Undo []undoStep

type undoKind uint8

const (
	vertexAdded undoKind = iota
	vertexRemoved
	edgeAdded
	edgeRemoved
)

// undoStep is one primitive mutation: a vertex (u) or an edge ({u,v}) that
// was added or removed, with the label a revert must restore.
type undoStep struct {
	kind  undoKind
	u, v  VertexID
	label Label
}

// ApplyUndoable applies cs to g in place exactly as Apply does — the same
// operations, the same validation, the same errors — and appends the
// primitive mutations it made to log. On success it returns the extended
// log. On failure it first reverts its own mutations, so g is left as it was
// on entry, and returns log as passed in together with the error.
func (cs ChangeSet) ApplyUndoable(g *Graph, log Undo) (Undo, error) {
	base := len(log)
	for _, op := range cs {
		var err error
		if log, err = op.applyUndoable(g, log); err != nil {
			log[base:].Revert(g)
			return log[:base], err
		}
	}
	return log, nil
}

// applyUndoable runs op.Apply, so graph's rules live in one place, and logs
// what it changed by comparing the state around the call. A failed
// insertion can still have created its endpoints, and those are logged too.
func (op ChangeOp) applyUndoable(g *Graph, log Undo) (Undo, error) {
	switch op.Kind {
	case OpInsert:
		hadU, hadV, edges := g.HasVertex(op.U), g.HasVertex(op.V), g.edges
		err := op.Apply(g)
		if !hadU && g.HasVertex(op.U) {
			log = append(log, undoStep{kind: vertexAdded, u: op.U, label: op.ULabel})
		}
		if !hadV && op.V != op.U && g.HasVertex(op.V) {
			log = append(log, undoStep{kind: vertexAdded, u: op.V, label: op.VLabel})
		}
		if g.edges > edges {
			log = append(log, undoStep{kind: edgeAdded, u: op.U, v: op.V, label: op.EdgeLabel})
		}
		return log, err
	case OpDelete:
		el, ok := g.EdgeLabel(op.U, op.V)
		if !ok {
			return log, nil // deleting an absent edge is a no-op
		}
		ul, vl := g.labels[op.U], g.labels[op.V]
		if err := op.Apply(g); err != nil {
			return log, err
		}
		log = append(log, undoStep{kind: edgeRemoved, u: op.U, v: op.V, label: el})
		if !g.HasVertex(op.U) {
			log = append(log, undoStep{kind: vertexRemoved, u: op.U, label: ul})
		}
		if !g.HasVertex(op.V) {
			log = append(log, undoStep{kind: vertexRemoved, u: op.V, label: vl})
		}
		return log, nil
	default:
		return log, op.Apply(g)
	}
}

// Revert takes back every mutation in u, newest first, restoring g to the
// state it had before the ApplyUndoable calls that built u. Vertex and edge
// labels are restored exactly; the order of a vertex's neighbors may differ,
// which no Graph query other than Neighbors observes.
func (u Undo) Revert(g *Graph) {
	for i := len(u) - 1; i >= 0; i-- {
		s := u[i]
		switch s.kind {
		case vertexAdded:
			g.RemoveVertex(s.u)
		case vertexRemoved:
			_ = g.AddVertex(s.u, s.label) // absent since its removal: cannot conflict
		case edgeAdded:
			g.RemoveEdge(s.u, s.v)
		case edgeRemoved:
			_ = g.AddEdge(s.u, s.v, s.label) // endpoints restored, edge absent: cannot fail
		}
	}
}
