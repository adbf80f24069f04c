package core

import "errors"

// Sentinel errors classifying engine failures. The HTTP layer
// (internal/server) maps these onto status codes with errors.Is, so engine
// methods wrap them with %w rather than formatting ad-hoc strings.
var (
	// ErrUnknownStream reports an operation on a stream ID that was never
	// registered (or, in future, was retired).
	ErrUnknownStream = errors.New("unknown stream")
	// ErrUnknownQuery reports an operation on a query ID that is not
	// registered.
	ErrUnknownQuery = errors.New("unknown query")
	// ErrReplicaGap reports a shipped WAL record that is not the next record
	// the replica expects: records between the replica's applied LSN and the
	// shipped one are missing, so the replica must catch up (WAL tail fetch or
	// snapshot install) before applying further records.
	ErrReplicaGap = errors.New("replica is behind: shipped record leaves an LSN gap")
	// errInvalidChangeSet reports a change set its stream's graph refuses.
	errInvalidChangeSet = errors.New("invalid change set")
)

// rejection reports whether err is a refusal a client can provoke: an
// unknown query or stream, or an invalid change set.
func rejection(err error) bool {
	return errors.Is(err, ErrUnknownQuery) || errors.Is(err, ErrUnknownStream) || errors.Is(err, errInvalidChangeSet)
}
