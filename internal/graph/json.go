package graph

import "fmt"

// JSON is the JSON form of a labeled graph: the graph bodies of the HTTP
// API and the graphs of a checkpoint file.
type JSON struct {
	Vertices []JSONVertex `json:"vertices"`
	Edges    []JSONEdge   `json:"edges"`
}

// JSONVertex is one labeled vertex.
type JSONVertex struct {
	ID    int32  `json:"id"`
	Label uint16 `json:"label"`
}

// JSONEdge is one labeled undirected edge.
type JSONEdge struct {
	U     int32  `json:"u"`
	V     int32  `json:"v"`
	Label uint16 `json:"label"`
}

// ToJSON converts g to its JSON form, vertices in VertexIDs order and
// edges in Edges order.
func ToJSON(g *Graph) JSON {
	var j JSON
	for _, v := range g.VertexIDs() {
		j.Vertices = append(j.Vertices, JSONVertex{ID: int32(v), Label: uint16(g.MustVertexLabel(v))})
	}
	for _, e := range g.Edges() {
		j.Edges = append(j.Edges, JSONEdge{U: int32(e.U), V: int32(e.V), Label: uint16(e.Label)})
	}
	return j
}

// ToGraph validates and converts the JSON form.
func (j JSON) ToGraph() (*Graph, error) {
	g := New()
	for _, v := range j.Vertices {
		if err := g.AddVertex(VertexID(v.ID), Label(v.Label)); err != nil {
			return nil, fmt.Errorf("vertex %d: %w", v.ID, err)
		}
	}
	for _, e := range j.Edges {
		if err := g.AddEdge(VertexID(e.U), VertexID(e.V), Label(e.Label)); err != nil {
			return nil, fmt.Errorf("edge {%d,%d}: %w", e.U, e.V, err)
		}
	}
	return g, nil
}
