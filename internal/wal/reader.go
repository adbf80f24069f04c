package wal

import (
	"encoding/binary"
	"hash/crc32"
)

// Framing: the file starts with an 8-byte magic, followed by frames of
//
//	[u32 payload length][u32 CRC32-IEEE of payload][payload]
//
// with fixed-width little-endian header fields. A record is valid only if its
// whole frame is present, the CRC matches, the payload parses, and its LSN is
// strictly greater than the previous record's. The first violation ends the
// valid prefix. A zero length is one, and it is where the zero-filled tail
// the log keeps past its last record begins; recovery keeps that tail when
// every byte of it is zero. Any other tail is torn and discarded. This is
// exactly the write-side guarantee inverted — appends are single sequential
// writes, so a crash can only tear the final frame.
const (
	frameHeaderSize = 8
	// maxPayload bounds a single record. A length field above it is treated
	// as corruption rather than an allocation request, so a torn length
	// prefix cannot make recovery attempt a multi-gigabyte read.
	maxPayload = 64 << 20
	// minPayload is the smallest parseable payload: 1-byte LSN varint plus
	// the kind byte.
	minPayload = 2
)

// fileMagic identifies a WAL file (8 bytes, version 1 in the last byte).
var fileMagic = []byte("nntwal\x00\x01")

// scanResult summarizes one pass over the frame region of a log file.
type scanResult struct {
	// validLen is the byte length of the valid frame prefix (excluding the
	// file magic).
	validLen int64
	// lastLSN is the LSN of the final valid record (0 when none).
	lastLSN uint64
	// records counts valid records.
	records int
	// torn reports whether trailing bytes after the valid prefix were
	// present (recovery truncates them unless they are all zero).
	torn bool
}

// scanFrames walks data (the file content after the magic), invoking fn for
// each valid record in order. It stops at the first torn or corrupt frame.
// A non-nil error from fn aborts the scan and is returned verbatim; framing
// corruption is not an error, it just ends the valid prefix.
func scanFrames(data []byte, fn func(Record) error) (scanResult, error) {
	var res scanResult
	pos := int64(0)
	n := int64(len(data))
	for {
		if n-pos < frameHeaderSize {
			res.torn = pos < n
			break
		}
		payloadLen := int64(binary.LittleEndian.Uint32(data[pos:]))
		sum := binary.LittleEndian.Uint32(data[pos+4:])
		if payloadLen < minPayload || payloadLen > maxPayload || pos+frameHeaderSize+payloadLen > n {
			res.torn = true
			break
		}
		payload := data[pos+frameHeaderSize : pos+frameHeaderSize+payloadLen]
		if crc32.ChecksumIEEE(payload) != sum {
			res.torn = true
			break
		}
		rec, err := decodePayload(payload)
		if err != nil {
			res.torn = true
			break
		}
		if rec.LSN <= res.lastLSN {
			// LSNs are strictly increasing within a file; a regression means
			// the frame boundary landed on stale bytes.
			res.torn = true
			break
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return res, err
			}
		}
		pos += frameHeaderSize + payloadLen
		res.validLen = pos
		res.lastLSN = rec.LSN
		res.records++
	}
	return res, nil
}
