package nntstream

import (
	"strings"
	"testing"

	"nntstream/internal/server"
)

// ingestFrame is a representative step frame for the decode benchmark: four
// streams, eight ops, mixed inserts and deletes — roughly what one loadgen
// batch line looks like.
var ingestFrame = []byte(strings.Join([]string{
	`{"changes":[`,
	`{"stream":0,"ops":[{"op":"ins","u":101,"v":102,"ul":3,"vl":4,"el":5},{"op":"del","u":7,"v":8}]},`,
	`{"stream":1,"ops":[{"op":"ins","u":-9,"v":10,"ul":0,"vl":1,"el":2}]},`,
	`{"stream":2,"ops":[{"op":"ins","u":201,"v":202,"ul":7,"vl":7,"el":0},{"op":"del","u":201,"v":199},{"op":"ins","u":202,"v":203,"ul":7,"vl":2,"el":1}]},`,
	`{"stream":3,"ops":[{"op":"del","u":1,"v":2},{"op":"ins","u":3,"v":4,"ul":5,"vl":6,"el":7}]}`,
	`]}`,
}, ""))

var ingestDecodeSink int

// BenchmarkIngestDecode measures the warm ingest frame decoder — the per-line
// cost of the /v1/ingest hot loop. The decoder reuses its backing storage,
// so the steady state must not allocate; TestIngestDecodeZeroAlloc in
// internal/server pins that at 0.
func BenchmarkIngestDecode(b *testing.B) {
	var d server.IngestDecoder
	if _, err := d.DecodeStep(ingestFrame); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(ingestFrame)))
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		step, err := d.DecodeStep(ingestFrame)
		if err != nil {
			b.Fatal(err)
		}
		n += step.OpCount()
	}
	ingestDecodeSink = n
}
