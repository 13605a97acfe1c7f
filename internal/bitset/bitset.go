// Package bitset provides the dense bitsets the E-stage split trees are
// built from: each partition maps its target EIDs to bit positions once, and
// every set operation a split needs (intersection, difference, union) is a
// handful of word-wide AND/AND-NOT/ORs instead of map traffic. All sets over
// one universe share a fixed word length, so binary operations never need
// length reconciliation.
package bitset

import "math/bits"

// Set is a fixed-universe bitset. Sets built by New with the same n are
// directly compatible operands.
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

// Count returns the number of set bits.
func (s Set) Count() int {
	c := 0
	for _, w := range s {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether any bit is set.
func (s Set) Any() bool {
	for _, w := range s {
		if w != 0 {
			return true
		}
	}
	return false
}

// Clear zeroes the set in place.
func (s Set) Clear() {
	for i := range s {
		s[i] = 0
	}
}

// Clone returns a copy of s.
func (s Set) Clone() Set {
	out := make(Set, len(s))
	copy(out, s)
	return out
}

// OrInto sets dst = a ∪ b; dst may alias either operand.
func OrInto(dst, a, b Set) {
	for i := range dst {
		dst[i] = a[i] | b[i]
	}
}

// AndInto sets dst = a ∩ b; dst may alias either operand.
func AndInto(dst, a, b Set) {
	for i := range dst {
		dst[i] = a[i] & b[i]
	}
}

// AndNotInto sets dst = a \ b; dst may alias either operand.
func AndNotInto(dst, a, b Set) {
	for i := range dst {
		dst[i] = a[i] &^ b[i]
	}
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
