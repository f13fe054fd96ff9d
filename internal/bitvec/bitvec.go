// Package bitvec provides a compact, fixed-capacity bit vector used
// throughout the simulator for Pauli frames, measurement records, detector
// events, and syndromes. The representation is a little-endian slice of
// 64-bit words; bit i lives in word i/64 at position i%64.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

// Vec is a bit vector with a fixed length established at creation time.
// The zero value is an empty vector of length 0.
type Vec struct {
	n     int
	words []uint64
}

// New returns a zeroed bit vector holding n bits.
func New(n int) Vec {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return Vec{n: n, words: make([]uint64, (n+63)/64)}
}

// FromIndices returns a length-n vector with the given bits set.
func FromIndices(n int, idx ...int) Vec {
	v := New(n)
	for _, i := range idx {
		v.Set(i)
	}
	return v
}

// Len reports the number of bits in the vector.
func (v Vec) Len() int { return v.n }

// Get reports whether bit i is set.
func (v Vec) Get(i int) bool {
	return v.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Set sets bit i to 1.
func (v Vec) Set(i int) {
	v.words[i>>6] |= 1 << (uint(i) & 63)
}

// Clear sets bit i to 0.
func (v Vec) Clear(i int) {
	v.words[i>>6] &^= 1 << (uint(i) & 63)
}

// Flip toggles bit i.
func (v Vec) Flip(i int) {
	v.words[i>>6] ^= 1 << (uint(i) & 63)
}

// SetTo sets bit i to the given value.
func (v Vec) SetTo(i int, b bool) {
	if b {
		v.Set(i)
	} else {
		v.Clear(i)
	}
}

// Reset zeroes every bit.
func (v Vec) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// lengthMismatch keeps the panic's fmt call out of the hot methods: the
// format machinery boxes its operands and bloats the caller past the
// inlining budget even when the branch never runs.
func lengthMismatch(a, b int) {
	panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", a, b))
}

// XorWith xors other into v in place. The vectors must have equal length.
func (v Vec) XorWith(other Vec) {
	if v.n != other.n {
		lengthMismatch(v.n, other.n)
	}
	for i := range v.words {
		v.words[i] ^= other.words[i]
	}
}

// CopyFrom overwrites v with the contents of other. Lengths must match.
func (v Vec) CopyFrom(other Vec) {
	if v.n != other.n {
		lengthMismatch(v.n, other.n)
	}
	copy(v.words, other.words)
}

// Clone returns an independent copy of v.
func (v Vec) Clone() Vec {
	c := Vec{n: v.n, words: make([]uint64, len(v.words))}
	copy(c.words, v.words)
	return c
}

// PopCount returns the number of set bits (the Hamming weight).
func (v Vec) PopCount() int {
	total := 0
	for _, w := range v.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// Any reports whether any bit is set.
func (v Vec) Any() bool {
	for _, w := range v.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether v and other hold identical bits.
func (v Vec) Equal(other Vec) bool {
	if v.n != other.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != other.words[i] {
			return false
		}
	}
	return true
}

// Ones returns the indices of all set bits in ascending order, appended to
// dst (which may be nil). Iterating words and isolating the lowest set bit
// keeps this O(words + ones).
func (v Vec) Ones(dst []int) []int {
	for wi, w := range v.words {
		base := wi << 6
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			dst = append(dst, base+tz)
			w &= w - 1
		}
	}
	return dst
}

// AppendWords appends v's backing words to dst and returns the extended
// slice: bit i of v is bit i%64 of the (i/64)-th appended word. It copies a
// whole vector a word at a time, where Ones would cost a step per set bit.
func (v Vec) AppendWords(dst []uint64) []uint64 {
	return append(dst, v.words...)
}

// NextOne returns the index of the lowest set bit at or above from, or -1
// when there is none — the allocation-free way to walk the set bits:
//
//	for i := v.NextOne(0); i >= 0; i = v.NextOne(i + 1) { ... }
func (v Vec) NextOne(from int) int {
	if from >= v.n {
		return -1
	}
	wi := from >> 6
	w := v.words[wi] >> (uint(from) & 63) << (uint(from) & 63)
	for w == 0 {
		wi++
		if wi == len(v.words) {
			return -1
		}
		w = v.words[wi]
	}
	return wi<<6 + bits.TrailingZeros64(w)
}

// String renders the vector as a 0/1 string, bit 0 first.
func (v Vec) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Key returns a comparable string key for use as a map index (e.g. the
// LILLIPUT lookup table). It is the raw word contents, so it is compact and
// collision-free for vectors of the same length.
func (v Vec) Key() string {
	b := make([]byte, 8*len(v.words))
	for i, w := range v.words {
		for j := 0; j < 8; j++ {
			b[i*8+j] = byte(w >> (8 * uint(j)))
		}
	}
	return string(b)
}

// Uint64 interprets the first min(64, Len) bits as an unsigned integer.
// It panics if the vector is longer than 64 bits, to avoid silent truncation.
func (v Vec) Uint64() uint64 {
	if v.n > 64 {
		panic("bitvec: Uint64 on vector longer than 64 bits")
	}
	if len(v.words) == 0 {
		return 0
	}
	return v.words[0]
}
