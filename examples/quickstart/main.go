// Quickstart: monitor a tiny evolving graph for two patterns.
//
// This is the 60-second tour of the public API: build a query pattern and a
// starting graph, wrap a filter in a Monitor, feed graph change operations,
// and read the possibly-joinable pairs at each timestamp. Run it with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/join"
)

func main() {
	// Labels for readability.
	ab := graph.NewAlphabet()
	A, B, C := ab.Intern("A"), ab.Intern("B"), ab.Intern("C")
	wire := graph.Label(0)

	// Query 0: an A—B edge. Query 1: an A—B—C triangle.
	edge := graph.New()
	must(edge.AddVertex(0, A))
	must(edge.AddVertex(1, B))
	must(edge.AddEdge(0, 1, wire))

	triangle := graph.New()
	must(triangle.AddVertex(0, A))
	must(triangle.AddVertex(1, B))
	must(triangle.AddVertex(2, C))
	must(triangle.AddEdge(0, 1, wire))
	must(triangle.AddEdge(1, 2, wire))
	must(triangle.AddEdge(2, 0, wire))

	// The monitored graph starts as the path A—B—C.
	start := graph.New()
	must(start.AddVertex(10, A))
	must(start.AddVertex(11, B))
	must(start.AddVertex(12, C))
	must(start.AddEdge(10, 11, wire))
	must(start.AddEdge(11, 12, wire))

	// A Monitor drives any filter; the skyline join is the one cmd/serve
	// runs by default.
	mon := core.NewMonitor(join.NewSkyline(join.DefaultDepth))
	qEdge, err := mon.AddQuery(edge)
	check(err)
	qTri, err := mon.AddQuery(triangle)
	check(err)
	stream, err := mon.AddStream(start)
	check(err)
	names := map[core.QueryID]string{qEdge: "A—B edge", qTri: "triangle"}

	// The stream: close the triangle, then break it again.
	steps := []graph.ChangeSet{
		{graph.InsertOp(12, C, 10, A, wire)},
		{graph.DeleteOp(10, 11)},
	}

	report := func(t int, pairs []core.Pair) {
		fmt.Printf("t=%d:", t)
		if len(pairs) == 0 {
			fmt.Print(" no candidate patterns")
		}
		for _, p := range pairs {
			fmt.Printf(" [%s]", names[p.Query])
		}
		fmt.Println()
	}

	report(0, mon.Candidates())
	for i, cs := range steps {
		pairs, err := mon.Step(stream, cs)
		check(err)
		report(i+1, pairs)
	}

	// The filter admits no false negatives; candidates can be confirmed
	// with exact isomorphism when needed.
	if missed := mon.VerifyNoFalseNegatives(); len(missed) != 0 {
		log.Fatalf("filter missed pairs: %v", missed)
	}
	fmt.Println("verified: no false negatives at the final timestamp")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
