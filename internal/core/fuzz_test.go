package core

import (
	"bytes"
	"reflect"
	"testing"

	"nntstream/internal/graph"
)

// FuzzDecodeSnapshot drives the checkpoint decoder with arbitrary bytes:
// recovery reads whatever the crash left at the checkpoint path, so the
// decoder must reject garbage with an error — never panic — and anything it
// accepts must survive an encode/decode round trip unchanged (the next
// checkpoint rewrites the same state).
func FuzzDecodeSnapshot(f *testing.F) {
	valid := snapshotFile{
		Version:    snapshotVersion,
		NextQuery:  3,
		NextStream: 2,
		WALSeq:     17,
		Queries: []snapshotEntry{{
			ID: 1,
			Graph: graph.JSON{
				Vertices: []graph.JSONVertex{{ID: 1, Label: 10}, {ID: 2, Label: 20}},
				Edges:    []graph.JSONEdge{{U: 1, V: 2, Label: 5}},
			},
		}},
		Streams: []snapshotEntry{{
			ID:    1,
			Graph: graph.JSON{Vertices: []graph.JSONVertex{{ID: 4, Label: 7}}},
		}},
	}
	var buf bytes.Buffer
	if err := writeSnapshotTo(&buf, valid); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("{}"))
	f.Add([]byte(`{"version":1,"queries":[{"id":-1}]}`))
	f.Add([]byte("{\"version\":"))
	f.Add([]byte{0x00, 0xff, 0x7b})

	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := readSnapshotFrom(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := writeSnapshotTo(&out, file); err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		again, err := readSnapshotFrom(&out)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if !reflect.DeepEqual(file, again) {
			t.Fatalf("snapshot round trip diverged:\n%#v\nvs\n%#v", file, again)
		}
		// Graph sections that decode must decode again identically; invalid
		// sections (duplicate vertices, dangling edges) must error, not panic.
		for _, entry := range append(append([]snapshotEntry{}, file.Queries...), file.Streams...) {
			g, err := entry.Graph.ToGraph()
			if err != nil {
				continue
			}
			h, err := entry.Graph.ToGraph()
			if err != nil || !g.Equal(h) {
				t.Fatalf("graph section decode is not deterministic: %v", err)
			}
		}
	})
}
