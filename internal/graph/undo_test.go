package graph

import (
	"math/rand"
	"testing"
)

// checkUndoable holds ApplyUndoable to its oracle, Apply on a clone, for one
// change set on top of an already-extended log: the same error, the same
// post-state on success, g untouched and the log unchanged on failure, and
// the pre-state back after Revert.
func checkUndoable(t *testing.T, g *Graph, cs ChangeSet, log Undo) Undo {
	t.Helper()
	pre := g.Clone()
	want := g.Clone()
	wantErr := cs.Apply(want)
	base := len(log)
	log, err := cs.ApplyUndoable(g, log)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("ApplyUndoable error %v; Apply on a clone says %v\nset %v on %v", err, wantErr, cs, pre)
	}
	if err != nil {
		if len(log) != base {
			t.Fatalf("failed apply left %d log entries beyond the %d passed in", len(log)-base, base)
		}
		if !g.Equal(pre) {
			t.Fatalf("failed apply not reverted:\n got %v\nwant %v\nset %v", g, pre, cs)
		}
		return log
	}
	if !g.Equal(want) {
		t.Fatalf("ApplyUndoable diverged from Apply:\n got %v\nwant %v\nset %v on %v", g, want, cs, pre)
	}
	log[base:].Revert(g)
	if !g.Equal(pre) {
		t.Fatalf("Revert did not restore the pre-state:\n got %v\nwant %v\nset %v", g, pre, cs)
	}
	// Re-apply, so the caller's chain continues from the post-state.
	if log, err = cs.ApplyUndoable(g, log[:base]); err != nil {
		t.Fatalf("re-apply after Revert failed: %v", err)
	}
	return log
}

// randomChangeSet draws ops over a small ID and label space so that
// conflicts — relabels, edge relabels, self-loops, deletions of absent edges,
// deletions that retire vertices, re-insertions — are common. Sets are not
// normalized: an insertion may precede a deletion of the same edge.
func randomChangeSet(r *rand.Rand, n, labels int) ChangeSet {
	cs := make(ChangeSet, r.Intn(7))
	for i := range cs {
		u, v := VertexID(r.Intn(n)), VertexID(r.Intn(n))
		if r.Intn(3) == 0 {
			cs[i] = DeleteOp(u, v)
			continue
		}
		cs[i] = InsertOp(u, Label(r.Intn(labels)), v, Label(r.Intn(labels)), Label(r.Intn(2)))
	}
	return cs
}

// TestApplyUndoableMatchesCloneApply is the seeded property test: across
// random graphs with isolated vertices and random conflicting change sets,
// a chain of ApplyUndoable calls on one log behaves as Apply on clones does,
// and reverting the whole chain restores the starting graph.
func TestApplyUndoableMatchesCloneApply(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	for trial := 0; trial < 400; trial++ {
		n, labels := 3+r.Intn(8), 1+r.Intn(3)
		g := randomGraph(r, n, labels, 0.3*r.Float64())
		start := g.Clone()
		var log Undo
		for step := 0; step < 4; step++ {
			log = checkUndoable(t, g, randomChangeSet(r, n+2, labels), log)
		}
		log.Revert(g)
		if !g.Equal(start) {
			t.Fatalf("trial %d: reverting the chain:\n got %v\nwant %v", trial, g, start)
		}
	}
}

// FuzzApplyUndoable decodes a starting graph and a change set from bytes and
// checks ApplyUndoable against Apply on a clone. Each 5-byte record is one
// op: kind (insert, delete, or an isolated vertex for the starting graph),
// two endpoints out of 8 IDs, their labels and the edge label. Records up
// to the split byte build the starting graph, skipping any that fail; the
// rest form the set, conflicts included.
func FuzzApplyUndoable(f *testing.F) {
	f.Add([]byte{2, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 1, 2, 0, 1, 0, 0, 1, 9, 0})
	f.Add([]byte{1, 0, 1, 2, 0, 0, 1, 0, 1, 0, 0, 0, 2, 3, 0, 0, 0})
	f.Add([]byte{3, 2, 5, 0, 3, 0, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 5, 6, 0, 0, 1, 5, 6, 0, 0, 0, 7, 1, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		split, data := int(data[0]), data[1:]
		g := New()
		var cs ChangeSet
		for i := 0; i+5 <= len(data); i += 5 {
			rec := data[i : i+5]
			u, v := VertexID(rec[1]%8), VertexID(rec[2]%8)
			ul, vl, el := Label(rec[3]%3), Label(rec[3]/3%3), Label(rec[4]%2)
			var op ChangeOp
			switch rec[0] % 3 {
			case 0:
				op = InsertOp(u, ul, v, vl, el)
			case 1:
				op = DeleteOp(u, v)
			default:
				if i/5 < split {
					_ = g.AddVertex(u, ul)
					continue
				}
				op = ChangeOp{Kind: OpKind(rec[4]), U: u, V: v, ULabel: ul, VLabel: vl, EdgeLabel: el}
			}
			if i/5 < split {
				_ = op.Apply(g)
				continue
			}
			cs = append(cs, op)
		}
		checkUndoable(t, g, cs, nil)
	})
}
