// Package sentinelerr is the fixture for the sentinelerr analyzer: module
// error sentinels are compared with errors.Is, never == or !=.
package sentinelerr

import (
	"errors"
	"io"

	"nntstream/internal/core"
)

var errLocal = errors.New("local sentinel")

func classify(err error) string {
	if err == core.ErrUnknownStream { // want `sentinel core\.ErrUnknownStream is compared with ==`
		return "unknown-stream"
	}
	if err != core.ErrUnknownQuery { // want `sentinel core\.ErrUnknownQuery is compared with !=`
		return "other"
	}
	return "unknown-query"
}

func localSentinel(err error) bool {
	return err == errLocal // want `sentinel sentinelerr\.errLocal is compared with ==`
}

func goodIs(err error) bool {
	return errors.Is(err, core.ErrUnknownQuery)
}

func goodNil(err error) bool {
	return err == nil
}

func goodForeign(err error) bool {
	return err == io.EOF // io.EOF is not a module sentinel; stdlib idiom allows identity here
}

func goodSuppressed(err error) bool {
	//lint:ignore sentinelerr this path receives the sentinel unwrapped by construction
	return err == core.ErrReplicaGap
}
