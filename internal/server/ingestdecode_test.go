package server

import (
	"encoding/json"
	"strings"
	"testing"

	"nntstream/internal/graph"
)

// The frames the TestIngestDecode* tests decode. FuzzIngestDecodeStep
// seeds its corpus with them and with every ingestDecodeErrorCases line.
const (
	mixedFrame = `{"changes":[{"stream":3,"ops":[` +
		`{"op":"ins","u":1,"v":2,"ul":3,"vl":4,"el":5},` +
		`{"op":"del","u":-7,"v":8}]},` +
		`{"stream":0,"ops":[]}]}`
	emptyFrame      = `{"changes":[]}`
	spacedFrame     = `{"changes": [ {"stream": 1 , "ops": [ {"op":"del","u": 1 ,"v": 2 } ] } ] }`
	twoDeletesFrame = `{"changes":[{"stream":1,"ops":[{"op":"del","u":1,"v":2},{"op":"del","u":3,"v":4}]}]}`
	oneDeleteFrame  = `{"changes":[{"stream":9,"ops":[{"op":"del","u":5,"v":6}]}]}`
	warmFrame       = `{"changes":[{"stream":3,"ops":[` +
		`{"op":"ins","u":1,"v":2,"ul":3,"vl":4,"el":5},` +
		`{"op":"del","u":1,"v":2}]},` +
		`{"stream":4,"ops":[{"op":"ins","u":10,"v":11,"ul":0,"vl":1,"el":2}]}]}`
)

func TestIngestDecodeValid(t *testing.T) {
	var d IngestDecoder
	step, err := d.DecodeStep([]byte(mixedFrame))
	if err != nil {
		t.Fatalf("DecodeStep: %v", err)
	}
	if len(step.Groups) != 2 {
		t.Fatalf("groups = %d; want 2", len(step.Groups))
	}
	g := step.Groups[0]
	if g.Stream != 3 || len(g.Ops) != 2 {
		t.Fatalf("group 0 = stream %d with %d ops; want stream 3 with 2", g.Stream, len(g.Ops))
	}
	want := graph.InsertOp(1, 3, 2, 4, 5)
	if g.Ops[0] != want {
		t.Fatalf("op 0 = %+v; want %+v", g.Ops[0], want)
	}
	if del := graph.DeleteOp(-7, 8); g.Ops[1] != del {
		t.Fatalf("op 1 = %+v; want %+v", g.Ops[1], del)
	}
	if g2 := step.Groups[1]; g2.Stream != 0 || len(g2.Ops) != 0 {
		t.Fatalf("group 1 = %+v; want empty stream 0", g2)
	}
	if step.OpCount() != 2 {
		t.Fatalf("OpCount = %d; want 2", step.OpCount())
	}

	// An empty changes array is a legal (if pointless) frame.
	step, err = d.DecodeStep([]byte(emptyFrame))
	if err != nil || len(step.Groups) != 0 {
		t.Fatalf("empty frame = (%v, %v)", step.Groups, err)
	}

	// Insignificant whitespace between tokens is tolerated.
	step, err = d.DecodeStep([]byte(spacedFrame))
	if err != nil || len(step.Groups) != 1 || len(step.Groups[0].Ops) != 1 {
		t.Fatalf("whitespace frame = (%v, %v)", step.Groups, err)
	}
}

func TestIngestDecodeReuseAcrossCalls(t *testing.T) {
	var d IngestDecoder
	if _, err := d.DecodeStep([]byte(twoDeletesFrame)); err != nil {
		t.Fatal(err)
	}
	// A smaller follow-up frame must not leak the previous frame's groups
	// or ops out of the recycled storage.
	step, err := d.DecodeStep([]byte(oneDeleteFrame))
	if err != nil {
		t.Fatal(err)
	}
	if len(step.Groups) != 1 || step.Groups[0].Stream != 9 || len(step.Groups[0].Ops) != 1 {
		t.Fatalf("recycled decode = %+v", step.Groups)
	}
	if want := graph.DeleteOp(5, 6); step.Groups[0].Ops[0] != want {
		t.Fatalf("op = %+v; want %+v", step.Groups[0].Ops[0], want)
	}
}

var ingestDecodeErrorCases = []struct {
	name, line, wantSub string
}{
	{"empty", ``, `frame must open`},
	{"not json", `hello`, `frame must open`},
	{"reordered keys", `{"changes":[{"ops":[],"stream":0}]}`, `must open with {"stream":`},
	{"unknown op", `{"changes":[{"stream":0,"ops":[{"op":"upsert","u":1,"v":2}]}]}`, `"op" must be "ins" or "del"`},
	{"ins missing labels", `{"changes":[{"stream":0,"ops":[{"op":"ins","u":1,"v":2}]}]}`, `want integer "ul"`},
	{"del with labels", `{"changes":[{"stream":0,"ops":[{"op":"del","u":1,"v":2,"ul":3}]}]}`, `want "}" closing op`},
	{"float id", `{"changes":[{"stream":0,"ops":[{"op":"del","u":1.5,"v":2}]}]}`, `want integer "v"`},
	{"leading zero", `{"changes":[{"stream":01,"ops":[]}]}`, `"stream" must be an integer`},
	{"vertex overflow", `{"changes":[{"stream":0,"ops":[{"op":"del","u":2147483648,"v":2}]}]}`, `vertex id out of range`},
	{"label overflow", `{"changes":[{"stream":0,"ops":[{"op":"ins","u":1,"v":2,"ul":65536,"vl":0,"el":0}]}]}`, `label out of range`},
	{"negative label", `{"changes":[{"stream":0,"ops":[{"op":"ins","u":1,"v":2,"ul":-1,"vl":0,"el":0}]}]}`, `label out of range`},
	{"trailing bytes", `{"changes":[]}x`, `trailing bytes`},
	{"truncated", `{"changes":[{"stream":0,"ops":[`, `op must open`},
	{"huge int", `{"changes":[{"stream":99999999999999999999,"ops":[]}]}`, `"stream" must be an integer`},
}

func TestIngestDecodeErrors(t *testing.T) {
	var d IngestDecoder
	for _, tc := range ingestDecodeErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := d.DecodeStep([]byte(tc.line))
			if err == nil {
				t.Fatalf("DecodeStep(%q) accepted", tc.line)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q missing %q", err, tc.wantSub)
			}
			if !strings.Contains(err.Error(), "byte ") {
				t.Fatalf("error %q carries no offset", err)
			}
		})
	}
}

// TestIngestDecodeZeroAlloc is the steady-state allocation contract behind
// the //nnt:hotpath annotations: once the decoder's reused storage is warm,
// decoding allocates nothing. The same property is enforced in CI through
// the IngestDecode benchmark's -max-allocs 0 gate.
func TestIngestDecodeZeroAlloc(t *testing.T) {
	line := []byte(warmFrame)
	var d IngestDecoder
	if _, err := d.DecodeStep(line); err != nil { // warm the storage
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := d.DecodeStep(line); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm DecodeStep allocates %v per run; want 0", allocs)
	}
}

// ingestFrameJSON mirrors the step frame for encoding/json. Labels are
// pointers so that a label a frame carries can be told from one it omits.
type ingestFrameJSON struct {
	Changes []struct {
		Stream int64 `json:"stream"`
		Ops    []struct {
			Op string  `json:"op"`
			U  int32   `json:"u"`
			V  int32   `json:"v"`
			UL *uint16 `json:"ul"`
			VL *uint16 `json:"vl"`
			EL *uint16 `json:"el"`
		} `json:"ops"`
	} `json:"changes"`
}

// FuzzIngestDecodeStep holds the hand-written frame parser, which reads
// untrusted network bytes, to encoding/json: it never panics, and every
// frame it accepts is JSON that decodes to the same streams, op kinds,
// vertex IDs and labels. Each input is decoded after warmFrame, so the
// recycled storage is exercised too.
func FuzzIngestDecodeStep(f *testing.F) {
	for _, frame := range []string{mixedFrame, emptyFrame, spacedFrame, twoDeletesFrame, oneDeleteFrame, warmFrame} {
		f.Add([]byte(frame))
	}
	for _, tc := range ingestDecodeErrorCases {
		f.Add([]byte(tc.line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var d IngestDecoder
		if _, err := d.DecodeStep([]byte(warmFrame)); err != nil {
			t.Fatal(err)
		}
		step, err := d.DecodeStep(line)
		if err != nil {
			return
		}
		var want ingestFrameJSON
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("accepted frame %q is not JSON the mirror decodes: %v", line, err)
		}
		if len(step.Groups) != len(want.Changes) {
			t.Fatalf("frame %q: %d groups, encoding/json reads %d", line, len(step.Groups), len(want.Changes))
		}
		for i, g := range step.Groups {
			w := want.Changes[i]
			if g.Stream != w.Stream || len(g.Ops) != len(w.Ops) {
				t.Fatalf("frame %q group %d: stream %d with %d ops, encoding/json reads stream %d with %d",
					line, i, g.Stream, len(g.Ops), w.Stream, len(w.Ops))
			}
			for j, op := range g.Ops {
				wo := w.Ops[j]
				var wantOp graph.ChangeOp
				switch {
				case wo.Op == "ins" && wo.UL != nil && wo.VL != nil && wo.EL != nil:
					wantOp = graph.InsertOp(graph.VertexID(wo.U), graph.Label(*wo.UL), graph.VertexID(wo.V), graph.Label(*wo.VL), graph.Label(*wo.EL))
				case wo.Op == "del" && wo.UL == nil && wo.VL == nil && wo.EL == nil:
					wantOp = graph.DeleteOp(graph.VertexID(wo.U), graph.VertexID(wo.V))
				default:
					t.Fatalf("frame %q group %d op %d: accepted, but encoding/json reads %+v", line, i, j, wo)
				}
				if op != wantOp {
					t.Fatalf("frame %q group %d op %d = %+v; encoding/json reads %+v", line, i, j, op, wantOp)
				}
			}
		}
	})
}
