// Package bitvec provides a fixed-size bitvector.
//
// The adaptive storage layer uses bitvectors in two places that the paper
// calls out explicitly: (1) tracking already-processed physical pages during
// multi-view query answering, so that pages shared by overlapping views are
// not scanned twice (§2.1), and (2) as the "Bitmap" explicit-index baseline
// of the micro-benchmark in §3.1.
package bitvec

import (
	"fmt"
	"math/bits"
)

const wordBits = 64

// Vector is a fixed-size bitvector. The zero value is an empty vector of
// length 0; use New to create one with a given size.
//
// Vector is not safe for concurrent use.
type Vector struct {
	words []uint64
	n     int
}

// New returns a vector of n bits, all zero.
func New(n int) *Vector {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative size %d", n))
	}
	return &Vector{
		words: make([]uint64, (n+wordBits-1)/wordBits),
		n:     n,
	}
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// Set sets bit i to one.
func (v *Vector) Set(i int) {
	v.check(i)
	v.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear sets bit i to zero.
func (v *Vector) Clear(i int) {
	v.check(i)
	v.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Get reports whether bit i is one.
func (v *Vector) Get(i int) bool {
	v.check(i)
	return v.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// TestAndSet sets bit i and reports its previous value. It is the primitive
// used for processed-page tracking: the first scanner of a shared page wins.
func (v *Vector) TestAndSet(i int) bool {
	v.check(i)
	w, m := i/wordBits, uint64(1)<<(uint(i)%wordBits)
	old := v.words[w]&m != 0
	v.words[w] |= m
	return old
}

// Count returns the number of one bits.
func (v *Vector) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Reset sets every bit to zero without reallocating.
func (v *Vector) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// NextSet returns the index of the first one bit at or after i, or -1 if
// there is none. It lets callers iterate set bits in O(words) rather than
// O(bits), which matters for the Bitmap index baseline whose lookup is
// "basically a scan of the bitvector" (§3.1).
func (v *Vector) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= v.n {
		return -1
	}
	w := i / wordBits
	// Mask off bits below i in the first word.
	cur := v.words[w] &^ ((1 << (uint(i) % wordBits)) - 1)
	for {
		if cur != 0 {
			j := w*wordBits + bits.TrailingZeros64(cur)
			if j >= v.n {
				return -1
			}
			return j
		}
		w++
		if w >= len(v.words) {
			return -1
		}
		cur = v.words[w]
	}
}

// Or sets v to the bitwise OR of v and o. Both vectors must have equal length.
func (v *Vector) Or(o *Vector) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d != %d", v.n, o.n))
	}
	for i := range v.words {
		v.words[i] |= o.words[i]
	}
}

// OrAt ORs words into v starting at bit offset off: bit j of words[k]
// lands on bit off+64k+j. It is how a row set takes a page's match mask
// at the page's row offset, which is rarely word-aligned. Every one bit
// must land inside the vector; zero bits may hang over its end.
func (v *Vector) OrAt(off int, words []uint64) {
	w, sh := off/wordBits, uint(off)%wordBits
	for k, x := range words {
		if x == 0 {
			continue
		}
		if top := off + k*wordBits + bits.Len64(x); off < 0 || top > v.n {
			panic(fmt.Sprintf("bitvec: bits [%d,%d) out of range [0,%d)", off, top, v.n))
		}
		v.words[w+k] |= x << sh
		if hi := x >> (wordBits - sh); hi != 0 { // a shift by 64 (sh == 0) yields 0
			v.words[w+k+1] |= hi
		}
	}
}

// And sets v to the bitwise AND of v and o. Both vectors must have equal length.
func (v *Vector) And(o *Vector) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d != %d", v.n, o.n))
	}
	for i := range v.words {
		v.words[i] &= o.words[i]
	}
}

// String renders the vector as a compact summary, e.g. "bitvec(12/64 set)".
func (v *Vector) String() string {
	return fmt.Sprintf("bitvec(%d/%d set)", v.Count(), v.n)
}

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}
