// Package nnt implements the paper's Node-Neighbor Tree feature structure
// (Section III): for every vertex u of a graph and a depth bound l, NNT(u)
// is the tree of all simple paths (paths without repeated edges) of length
// at most l starting at u. The Forest maintains the NNTs of all vertices of
// one graph incrementally under edge insertions and deletions, following the
// paper's Insert-Edge and Delete-Edge procedures, with the node-tree and
// edge-tree appearance indexes they rely on.
package nnt

import (
	"fmt"
	"sort"
	"strings"

	"nntstream/internal/graph"
)

// Node is one node of a node-neighbor tree. A tree node represents an
// occurrence of a graph vertex at the end of one simple path from the tree's
// root; the same graph vertex may occur many times in one tree.
type Node struct {
	// Vertex is the graph vertex this tree node represents.
	Vertex graph.VertexID
	// VLabel is Vertex's label, denormalized so deletions never need the
	// (possibly already mutated) graph.
	VLabel graph.Label
	// EdgeLabel is the label of the graph edge (Parent.Vertex, Vertex);
	// meaningless for roots.
	EdgeLabel graph.Label
	// Depth is the distance from the root; roots have depth 0.
	Depth int
	// Parent is nil for roots.
	Parent *Node
	// Children, one per incident graph edge that extends this simple path.
	// Children have pairwise distinct Vertex values because at most one
	// edge joins a vertex pair.
	Children []*Node
	// Root is the graph vertex owning the tree this node belongs to.
	Root graph.VertexID

	// Intrusive links for the forest's appearance indexes: nodePrev/
	// nodeNext chain all appearances of the same graph vertex (the
	// node-tree index I_n); edgePrev/edgeNext chain all appearances of
	// the same graph edge, each represented by the child endpoint (the
	// edge-tree index I_e). Linked lists keep index maintenance free of
	// per-node map hashing, which profiles as the dominant maintenance
	// cost otherwise.
	nodePrev, nodeNext *Node
	edgePrev, edgeNext *Node
}

// PathUsesEdge reports whether the root→n path traverses the undirected
// graph edge {u,v}. Paths are at most l long, so the walk is O(l).
func (n *Node) PathUsesEdge(u, v graph.VertexID) bool {
	e := graph.Edge{U: u, V: v}.Canonical()
	for cur := n; cur.Parent != nil; cur = cur.Parent {
		pe := graph.Edge{U: cur.Parent.Vertex, V: cur.Vertex}.Canonical()
		if pe.U == e.U && pe.V == e.V {
			return true
		}
	}
	return false
}

// Size returns the number of nodes in the subtree rooted at n, including n.
func (n *Node) Size() int {
	s := 1
	for _, c := range n.Children {
		s += c.Size()
	}
	return s
}

// canonicalString renders the subtree deterministically: children are
// ordered by graph vertex. Two NNTs over the same graph are equal iff their
// canonical strings agree, which is how tests compare incremental
// maintenance against from-scratch construction.
func (n *Node) canonicalString(b *strings.Builder) {
	fmt.Fprintf(b, "%d:%d", n.Vertex, n.VLabel)
	if n.Parent != nil {
		fmt.Fprintf(b, "/%d", n.EdgeLabel)
	}
	if len(n.Children) == 0 {
		return
	}
	kids := make([]*Node, len(n.Children))
	copy(kids, n.Children)
	sort.Slice(kids, func(i, j int) bool { return kids[i].Vertex < kids[j].Vertex })
	b.WriteByte('(')
	for i, c := range kids {
		if i > 0 {
			b.WriteByte(' ')
		}
		c.canonicalString(b)
	}
	b.WriteByte(')')
}

// CanonicalString returns the deterministic rendering of the subtree.
func (n *Node) CanonicalString() string {
	var b strings.Builder
	n.canonicalString(&b)
	return b.String()
}
