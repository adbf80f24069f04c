package wal

import (
	"encoding/binary"
	"errors"
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

// ErrRejected marks an OnRecord error for a record the engine refused to
// apply. The engine withdraws such a record before it acknowledges anything
// after it, but a crash inside the commit window can still find it on the
// disk, where it can only be the last frame: when no valid frame follows,
// recovery ends the valid prefix before it and cuts it like a torn tail.
// A rejected record with a valid frame after it still fails Open.
var ErrRejected = errors.New("wal: record rejected by replay")

// scanFrames walks data (the file content after the magic), invoking fn for
// each valid record in order. It stops at the first torn or corrupt frame.
// A non-nil error from fn aborts the scan and is returned verbatim, unless
// it wraps ErrRejected and no valid frame follows; framing corruption is not
// an error, it just ends the valid prefix.
func scanFrames(data []byte, fn func(Record) error) (scanResult, error) {
	var res scanResult
	for pos := int64(0); ; {
		rec, size, ok := readFrame(data[pos:])
		if !ok || rec.LSN <= res.lastLSN {
			// An LSN regression means the frame boundary landed on stale
			// bytes: LSNs are strictly increasing within a file.
			res.torn = pos < int64(len(data))
			return res, nil
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				if next, _, ok := readFrame(data[pos+size:]); errors.Is(err, ErrRejected) && (!ok || next.LSN <= rec.LSN) {
					res.torn = true
					return res, nil
				}
				return res, err
			}
		}
		pos += size
		res.validLen = pos
		res.lastLSN = rec.LSN
		res.records++
	}
}

// readFrame decodes the frame at the start of data and returns its record
// and length; ok is false when the frame is torn or corrupt.
func readFrame(data []byte) (rec Record, size int64, ok bool) {
	if len(data) < frameHeaderSize {
		return Record{}, 0, false
	}
	payloadLen := int64(binary.LittleEndian.Uint32(data))
	sum := binary.LittleEndian.Uint32(data[4:])
	if payloadLen < minPayload || payloadLen > maxPayload || frameHeaderSize+payloadLen > int64(len(data)) {
		return Record{}, 0, false
	}
	payload := data[frameHeaderSize : frameHeaderSize+payloadLen]
	if crc32.ChecksumIEEE(payload) != sum {
		return Record{}, 0, false
	}
	rec, err := decodePayload(payload)
	if err != nil {
		return Record{}, 0, false
	}
	return rec, frameHeaderSize + payloadLen, true
}
