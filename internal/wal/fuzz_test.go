package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"nntstream/internal/graph"
)

// frame wraps a payload in the on-disk [len][crc][payload] framing.
func frame(payload []byte) []byte {
	var buf []byte
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// FuzzReadRecord drives the recovery decoder with arbitrary bytes: whatever
// a crash (or disk corruption) leaves in the frame region, the reader must
// classify it as a valid prefix plus torn tail — never panic, never
// over-read, never yield a record it did not fully validate.
func FuzzReadRecord(f *testing.F) {
	g := graph.New()
	if err := g.AddVertex(1, 10); err != nil {
		f.Fatal(err)
	}
	if err := g.AddVertex(2, 20); err != nil {
		f.Fatal(err)
	}
	if err := g.AddEdge(1, 2, 5); err != nil {
		f.Fatal(err)
	}
	seeds := []Record{
		{LSN: 1, Kind: KindAddQuery, ID: 7, Graph: g},
		{LSN: 2, Kind: KindRemoveQuery, ID: 7},
		{LSN: 3, Kind: KindAddStream, ID: 9, Graph: g},
		{LSN: 4, Kind: KindStepAll, Changes: map[int64]graph.ChangeSet{
			9: {graph.InsertOp(3, 30, 1, 10, 6)},
		}},
	}
	var stream []byte
	for _, r := range seeds {
		payload, err := appendPayload(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
		f.Add(frame(payload))
		stream = append(stream, frame(payload)...)
	}
	f.Add(stream)
	f.Add(stream[:len(stream)-3]) // torn tail
	// The same two ahead of the zero tail a log keeps past its records.
	zeros := make([]byte, 3*frameHeaderSize)
	f.Add(append(stream[:len(stream):len(stream)], zeros...))
	f.Add(append(stream[:len(stream)-3:len(stream)-3], zeros...))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The bare payload decoder must reject or accept, never panic.
		if rec, err := decodePayload(data); err == nil {
			// An accepted payload must re-encode (the engine re-frames
			// replayed records during checkpoint-driven log resets).
			if _, err := appendPayload(nil, rec); err != nil {
				t.Fatalf("decoded record does not re-encode: %v", err)
			}
		}
		// The frame scanner must terminate with a consistent summary.
		var lastLSN uint64
		res, err := scanFrames(data, func(r Record) error {
			if r.LSN <= lastLSN {
				t.Fatalf("scanFrames yielded non-increasing LSN %d after %d", r.LSN, lastLSN)
			}
			lastLSN = r.LSN
			return nil
		})
		if err != nil {
			t.Fatalf("scanFrames returned callback error without one being raised: %v", err)
		}
		if res.validLen < 0 || res.validLen > int64(len(data)) {
			t.Fatalf("validLen %d out of range [0,%d]", res.validLen, len(data))
		}
		if res.lastLSN != lastLSN {
			t.Fatalf("summary lastLSN %d != observed %d", res.lastLSN, lastLSN)
		}
		if !res.torn && res.validLen != int64(len(data)) {
			t.Fatalf("not torn but validLen %d != %d", res.validLen, len(data))
		}
		// A zero length ends the log: the valid prefix ahead of a zero
		// tail scans to the same prefix.
		padded := append(data[:res.validLen:res.validLen], make([]byte, 2*frameHeaderSize)...)
		if again, _ := scanFrames(padded, nil); again.validLen != res.validLen || again.records != res.records {
			t.Fatalf("valid prefix of %d bytes and %d records scans to %d bytes and %d records ahead of zeros",
				res.validLen, res.records, again.validLen, again.records)
		}
	})
}
