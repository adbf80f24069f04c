// Package gen is the benchmark's frozen input generator. It depends on the
// standard library only — not on internal/datagen, internal/graph or
// math/rand — so nothing a later PR edits in the system under test can
// change what the benchmark feeds it. gen_test.go pins a SHA-256 of every
// workload's full input.
package gen

import "math"

// Rand is splitmix64: tiny, seedable, and ours, so the byte stream behind
// every workload is fixed by this file alone.
type Rand struct{ state uint64 }

// NewRand returns a generator for the given seed.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n). The modulo bias is below 2^-40 for the
// sizes used here.
func (r *Rand) Intn(n int) int { return int(r.Uint64() % uint64(n)) }

// Float64 returns a value in [0, 1).
func (r *Rand) Float64() float64 { return float64(r.Uint64()>>11) / (1 << 53) }

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Fork derives an independent generator, so one part of a workload can
// change how much randomness it draws without shifting the others.
func (r *Rand) Fork() *Rand { return NewRand(r.Uint64()) }

// Poisson samples a Poisson variate by Knuth's method (small means only).
func (r *Rand) Poisson(mean float64) int {
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
