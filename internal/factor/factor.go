// Package factor keeps only the counter accessor bench/layers reads. No
// join evaluates shared factors (DESIGN §7), so there is nothing to count.
package factor

// Counters returns the seal-time factor evaluations, memo lookups and
// short-circuit rejects: always 0. It stays until bench/layers drops its
// factor.* rows.
func Counters() (evals, lookups, rejects int64) { return 0, 0, 0 }
