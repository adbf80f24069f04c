//go:build race

package server

// raceEnabled reports a -race build. The race runtime drops sync.Pool items
// at random, so an allocation count across a pooled reuse does not hold
// there; the allocation tests skip, as Go's own malloc-count tests do.
const raceEnabled = true
