// Package bitset provides dense bitsets over a fixed universe of small
// integers: a partition's bound and live target ordinals, and the V stage's
// VID ordinal sets. A member test, an add and a remove touch one word, and
// ascending iteration skips empty words, so a set of store ordinals costs a
// word per 64 of them.
package bitset

import "math/bits"

// Set is a fixed-universe bitset.
type Set []uint64

// New returns an empty set over a universe of n elements.
func New(n int) Set {
	if n < 0 {
		n = 0
	}
	return make(Set, (n+63)/64)
}

// Has reports whether bit i is set.
func (s Set) Has(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

// Add sets bit i.
func (s Set) Add(i int) { s[i>>6] |= 1 << (uint(i) & 63) }

// Remove clears bit i.
func (s Set) Remove(i int) { s[i>>6] &^= 1 << (uint(i) & 63) }

// Clone returns a copy of s.
func (s Set) Clone() Set {
	out := make(Set, len(s))
	copy(out, s)
	return out
}

// ForEach calls fn for every set bit in ascending order.
func (s Set) ForEach(fn func(i int)) {
	for wi, w := range s {
		base := wi << 6
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}
