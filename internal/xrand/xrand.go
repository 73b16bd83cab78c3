// Package xrand provides a small, fast, deterministic pseudo-random number
// generator used by every workload and data generator in this repository.
//
// The experiments in the paper (§3) are driven by random data distributions,
// shuffled query sequences, and uniformly drawn update positions. For the
// reproduction to be debuggable and for tests to be stable, all of that
// randomness must be reproducible from a single seed, independent of Go
// version and of math/rand's global state. We therefore implement
// splitmix64 (for seeding) and xoshiro256** (for bulk generation), two
// public-domain generators with well-studied statistical behaviour.
package xrand

import "math/bits"

// Splitmix64 advances the given state and returns the next value of the
// splitmix64 sequence. It is used to expand a single user seed into the
// four words of xoshiro state, and is handy as a cheap standalone hash.
func Splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a deterministic xoshiro256** generator. It is not safe for
// concurrent use; create one generator per goroutine.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via splitmix64, per the xoshiro
// authors' recommendation.
func New(seed uint64) *Rand {
	var r Rand
	sm := seed
	for i := range r.s {
		r.s[i] = Splitmix64(&sm)
	}
	// All-zero state would be absorbing; splitmix64 of any seed cannot
	// produce four zero words, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return &r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17

	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)

	return result
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
//
// Lemire's nearly-divisionless method: the high word of the 128-bit
// product v*n is the draw, and the draw is rejected when the low word
// falls below 2^64 mod n, which removes the modulo bias. That threshold
// is below n, so a low word of at least n is accepted without computing
// it; the division runs only on the rare draws whose low word is below n.
// The accepted and rejected draws are exactly those of computing the
// threshold up front, so every stream is unchanged by the shortcut.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n(0)")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64Range returns a uniform value in [lo, hi]. It panics if lo > hi.
func (r *Rand) Uint64Range(lo, hi uint64) uint64 {
	if lo > hi {
		panic("xrand: Uint64Range with lo > hi")
	}
	span := hi - lo
	if span == ^uint64(0) {
		return r.Uint64()
	}
	return lo + r.Uint64n(span+1)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Shuffle pseudo-randomly permutes n elements via the provided swap
// function, using the Fisher-Yates algorithm. The paper shuffles its
// generated query sequences before firing them (§3.2).
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := int(r.Uint64n(uint64(i + 1)))
		swap(i, j)
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
