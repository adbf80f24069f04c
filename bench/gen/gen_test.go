package gen

import (
	"bytes"
	"encoding/json"
	"testing"
)

// pinned is the SHA-256 of every workload's full input (registrations,
// warm-up, script, expected final state) at the reference run length. If
// this test fails, the benchmark no longer measures what its recorded
// baselines measured: either revert the generator change or re-baseline
// deliberately and say so.
var pinned = map[string][2]string{
	"dense_rewrite": {
		"e26f93332b9e34493c45d404128f1c49bf490bcbfae5835b4586fb4248dc4d0b",
		"6e8eee7962e9a97895cd41d7fa338d67ccd3abbbeead043ae0c42b503ec977d6",
	},
	"many_queries": {
		"67cae6af2708b439adf5c215b59ca67d62742de00542210616f2de8738529942",
		"41d6722eb5537a1619c865519c9e37bbad2ed982ab25dc8f52924a13a1ae45aa",
	},
	"trickle": {
		"adc0f2f7ed3dc38b15e36936e4a006edcc3b653c12599339054c3abd67e44ac9",
		"c31e74a1c703557879a3c416c9d3e841a413c402d4fbacac441ee13f486f62a6",
	},
	"query_churn": {
		"4ab1a749d2e78350a9aaf75ea028803fd1f03b7488563d671db1426ab30606f8",
		"5fe933d4114f3a2b8fbc9efd663d17aacadc324d072a76688c067d593f738e18",
	},
}

func TestWorkloadDigestsArePinned(t *testing.T) {
	for _, s := range Specs {
		for i, seed := range []uint64{1, 2} {
			got := s.Build(seed, 1).Digest()
			if want := pinned[s.Name][i]; got != want {
				t.Errorf("%s seed %d: digest %s, pinned %s", s.Name, seed, got, want)
			}
		}
	}
}

type wireGraph struct {
	Graph struct {
		Vertices []struct {
			ID    int32  `json:"id"`
			Label uint16 `json:"label"`
		} `json:"vertices"`
		Edges []struct {
			U, V  int32
			Label uint16
		} `json:"edges"`
	} `json:"graph"`
}

func parseBody(t *testing.T, body []byte) *Graph {
	t.Helper()
	var w wireGraph
	if err := json.Unmarshal(body, &w); err != nil {
		t.Fatalf("graph body is not JSON: %v", err)
	}
	g := NewGraph()
	for _, v := range w.Graph.Vertices {
		g.AddVertex(v.ID, v.Label)
	}
	for _, e := range w.Graph.Edges {
		g.AddEdge(e.U, e.V, e.Label)
	}
	return g
}

type wireFrame struct {
	Changes []struct {
		Stream int `json:"stream"`
		Ops    []struct {
			Op         string
			U, V       int32
			UL, VL, EL uint16
		} `json:"ops"`
	} `json:"changes"`
}

// Every scripted operation must change the graph it addresses (no insert of
// a present edge, no delete of an absent one — "no operation fails"), labels
// must stay consistent, and replaying the frames over G0 must land exactly
// on the final graphs the from-scratch check registers.
func TestScriptsReplayToTheirFinalState(t *testing.T) {
	for _, s := range Specs {
		w := s.Build(3, 0.2)
		var graphs []*Graph
		for _, body := range w.Streams {
			graphs = append(graphs, parseBody(t, body))
		}
		live := len(w.Queries)
		steps := 0
		for _, req := range append(append([]Request(nil), w.Warmup...), w.Script...) {
			switch req.Kind {
			case AddQuery:
				live++
				if parseBody(t, req.Body).EdgeCount() == 0 {
					t.Fatalf("%s: empty query in script", s.Name)
				}
			case RemoveQuery:
				live--
			case Ingest:
				lines := bytes.Split(bytes.TrimSuffix(req.Body, []byte("\n")), []byte("\n"))
				if len(lines) != req.Steps {
					t.Fatalf("%s: request says %d steps, body has %d frames", s.Name, req.Steps, len(lines))
				}
				if live != w.LiveQueries {
					t.Fatalf("%s: %d live queries at a timestamp, workload says %d", s.Name, live, w.LiveQueries)
				}
				ops := 0
				for _, line := range lines {
					var f wireFrame
					if err := json.Unmarshal(line, &f); err != nil {
						t.Fatalf("%s: frame is not JSON: %v\n%s", s.Name, err, line)
					}
					steps++
					for _, c := range f.Changes {
						g := graphs[c.Stream]
						for _, op := range c.Ops {
							ops++
							switch {
							case op.Op == "del" && g.HasEdge(op.U, op.V):
								g.RemoveEdge(op.U, op.V)
							case op.Op == "ins" && !g.HasEdge(op.U, op.V):
								g.AddVertex(op.U, op.UL)
								g.AddVertex(op.V, op.VL)
								if g.Label(op.U) != op.UL || g.Label(op.V) != op.VL {
									t.Fatalf("%s step %d: insert relabels a vertex", s.Name, steps)
								}
								g.AddEdge(op.U, op.V, op.EL)
							default:
								t.Fatalf("%s step %d: %s {%d,%d} changes nothing", s.Name, steps, op.Op, op.U, op.V)
							}
						}
					}
				}
				if ops != req.Ops {
					t.Fatalf("%s: request says %d ops, frames hold %d", s.Name, req.Ops, ops)
				}
			}
		}
		for i, g := range graphs {
			if !bytes.Equal(GraphBody(g), w.FinalStreams[i]) {
				t.Errorf("%s: stream %d replays to a different graph than FinalStreams", s.Name, i)
			}
			if g.EdgeCount() == 0 {
				t.Errorf("%s: stream %d ended empty", s.Name, i)
			}
		}
		if len(w.FinalQueries) != w.LiveQueries || len(w.FinalQueryID) != w.LiveQueries {
			t.Errorf("%s: %d final queries, %d live", s.Name, len(w.FinalQueries), w.LiveQueries)
		}
	}
}
