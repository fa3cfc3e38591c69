// Package bits provides dense GF(2) linear algebra: bit vectors and bit
// matrices with row reduction, rank, kernel and linear solving. It is the
// substrate for classical codes, stabilizer tableaus and decoders.
package bits

import (
	"fmt"
	mbits "math/bits"
	"strings"
)

const wordBits = 64

// Vec is a fixed-length vector over GF(2). The zero value is an empty
// vector; use NewVec to create one of a given length.
type Vec struct {
	n     int
	words []uint64
}

// NewVec returns an all-zero vector of length n.
func NewVec(n int) Vec {
	if n < 0 {
		panic("bits: negative vector length")
	}
	return Vec{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// NewVecs returns count all-zero vectors of length n backed by a single
// contiguous allocation (bit-plane arrays for the batch simulators).
func NewVecs(count, n int) []Vec {
	out, _ := NewSlab(count, n)
	return out
}

// NewSlab is NewVecs that also returns the backing array (vector i is
// words [i·w, (i+1)·w)), so a run of vectors can move in one pass.
func NewSlab(count, n int) ([]Vec, []uint64) {
	if n < 0 || count < 0 {
		panic("bits: negative vector shape")
	}
	words := (n + wordBits - 1) / wordBits
	backing := make([]uint64, count*words)
	out := make([]Vec, count)
	for i := range out {
		out[i] = Vec{n: n, words: backing[i*words : (i+1)*words : (i+1)*words]}
	}
	return out, backing
}

// PackPlanes packs vectors of length n into the slab dst.
func PackPlanes(dst []uint64, planes []Vec, n int) {
	for i, p := range planes {
		if p.n != n {
			panic("bits: length mismatch in PackPlanes")
		}
		for j, x := range p.words {
			dst[i*len(p.words)+j] = x
		}
	}
}

// XorSlabs writes a XOR b, slabs shaped like dst, into dst in one word pass.
func XorSlabs(dst []Vec, a, b []uint64) {
	for i, d := range dst {
		for j := range d.words {
			d.words[j] = a[i*len(d.words)+j] ^ b[i*len(d.words)+j]
		}
	}
}

// FromString parses a vector from a string of '0' and '1' characters.
func FromString(s string) (Vec, error) {
	v := NewVec(len(s))
	for i, c := range s {
		switch c {
		case '0':
		case '1':
			v.Set(i, true)
		default:
			return Vec{}, fmt.Errorf("bits: invalid character %q in %q", c, s)
		}
	}
	return v, nil
}

// MustFromString is FromString that panics on malformed input. It is
// intended for compile-time constant tables.
func MustFromString(s string) Vec {
	v, err := FromString(s)
	if err != nil {
		panic(err)
	}
	return v
}

// Len returns the vector length in bits.
func (v Vec) Len() int { return v.n }

// Get returns bit i.
func (v Vec) Get(i int) bool {
	if i < 0 || i >= v.n {
		panic("bits: index out of range")
	}
	return v.words[i/wordBits]>>(uint(i)%wordBits)&1 == 1
}

// Set sets bit i to b.
func (v Vec) Set(i int, b bool) {
	if i < 0 || i >= v.n {
		panic("bits: index out of range")
	}
	mask := uint64(1) << (uint(i) % wordBits)
	if b {
		v.words[i/wordBits] |= mask
	} else {
		v.words[i/wordBits] &^= mask
	}
}

// Flip toggles bit i.
func (v Vec) Flip(i int) {
	if i < 0 || i >= v.n {
		panic("bits: index out of range")
	}
	v.words[i/wordBits] ^= uint64(1) << (uint(i) % wordBits)
}

// Clone returns an independent copy of v.
func (v Vec) Clone() Vec {
	w := NewVec(v.n)
	copy(w.words, v.words)
	return w
}

// --- word-level access (the substrate of the bit-plane batch simulator) ---

// Words returns the number of 64-bit words backing the vector.
func (v Vec) Words() int { return len(v.words) }

// Word returns the i-th backing word (bit j of the word is vector bit
// 64·i+j).
func (v Vec) Word(i int) uint64 { return v.words[i] }

// SetWord overwrites the i-th backing word. Bits beyond Len are masked
// off so that Weight, Zero and Equal stay consistent.
func (v Vec) SetWord(i int, w uint64) {
	v.words[i] = w & v.tailMask(i)
}

// XorWord xors w into the i-th backing word, masking bits beyond Len.
func (v Vec) XorWord(i int, w uint64) {
	v.words[i] ^= w & v.tailMask(i)
}

// tailMask returns the valid-bit mask for word i.
func (v Vec) tailMask(i int) uint64 {
	if r := v.n - i*wordBits; r < wordBits {
		return ^uint64(0) >> uint(wordBits-r)
	}
	return ^uint64(0)
}

// Or sets v |= w in place. The lengths must match.
func (v Vec) Or(w Vec) {
	if v.n != w.n {
		panic("bits: length mismatch in Or")
	}
	for i := range v.words {
		v.words[i] |= w.words[i]
	}
}

// AndNot sets v &^= w in place. The lengths must match.
func (v Vec) AndNot(w Vec) {
	if v.n != w.n {
		panic("bits: length mismatch in AndNot")
	}
	for i := range v.words {
		v.words[i] &^= w.words[i]
	}
}

// CopyFrom overwrites v with the bits of w. The lengths must match.
func (v Vec) CopyFrom(w Vec) {
	if v.n != w.n {
		panic("bits: length mismatch in CopyFrom")
	}
	copy(v.words, w.words)
}

// Clear zeroes every bit in place.
func (v Vec) Clear() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// SetAll sets every bit in place (tail bits beyond Len stay 0).
func (v Vec) SetAll() {
	for i := range v.words {
		v.SetWord(i, ^uint64(0))
	}
}

// Any reports whether any bit is 1.
func (v Vec) Any() bool { return !v.Zero() }

// Zero reports whether every bit is 0.
func (v Vec) Zero() bool {
	for _, w := range v.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether v and w have the same length and bits.
func (v Vec) Equal(w Vec) bool {
	if v.n != w.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != w.words[i] {
			return false
		}
	}
	return true
}

// Xor sets v ^= w in place. The lengths must match.
func (v Vec) Xor(w Vec) {
	if v.n != w.n {
		panic("bits: length mismatch in Xor")
	}
	for i := range v.words {
		v.words[i] ^= w.words[i]
	}
}

// And sets v &= w in place. The lengths must match.
func (v Vec) And(w Vec) {
	if v.n != w.n {
		panic("bits: length mismatch in And")
	}
	for i := range v.words {
		v.words[i] &= w.words[i]
	}
}

// Dot returns the GF(2) inner product of v and w.
func (v Vec) Dot(w Vec) bool {
	if v.n != w.n {
		panic("bits: length mismatch in Dot")
	}
	var acc uint64
	for i := range v.words {
		acc ^= v.words[i] & w.words[i]
	}
	return popcount(acc)%2 == 1
}

// Weight returns the Hamming weight (number of 1 bits).
func (v Vec) Weight() int {
	w := 0
	for _, word := range v.words {
		w += popcount(word)
	}
	return w
}

// Support returns the indices of the 1 bits in increasing order.
func (v Vec) Support() []int {
	return v.AppendSupport(nil)
}

// AppendSupport appends the indices of the 1 bits in increasing order to
// dst and returns the extended slice. It walks whole words and extracts
// set bits with trailing-zero counts, so sparse vectors cost O(words +
// ones) rather than O(bits) — the hot path of batch defect extraction.
func (v Vec) AppendSupport(dst []int) []int {
	for i, w := range v.words {
		base := i * wordBits
		for ; w != 0; w &= w - 1 {
			dst = append(dst, base+trailingZeros64(w))
		}
	}
	return dst
}

// String renders the vector as a string of '0' and '1'.
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

// Key returns a comparable key for use in maps. Two vectors of the same
// length have equal keys iff they are equal.
func (v Vec) Key() string {
	b := make([]byte, 0, len(v.words)*8)
	for _, w := range v.words {
		for s := 0; s < 64; s += 8 {
			b = append(b, byte(w>>uint(s)))
		}
	}
	return string(b)
}

// trailingZeros64 names math/bits.TrailingZeros64 under the import alias.
func trailingZeros64(x uint64) int { return mbits.TrailingZeros64(x) }

// TransposePlanes writes the bit-matrix transpose of src into dst:
// dst[j].Get(i) == src[i].Get(j). src holds n vectors of m bits and dst
// must hold m vectors of at least n bits; bits from n up are cleared, so
// one lane-major buffer serves every plane count up to its length. The
// work runs block-wise: each 64×64 bit tile is gathered into registers,
// transposed by the classic swap-by-halves network, and scattered —
// O(n·m/64) word operations instead of O(n·m) bit probes. It is the
// pivot between check-major syndrome planes (one vector per check, one
// bit per shot) and lane-major syndromes (one vector per shot) that
// per-lane decoders consume.
func TransposePlanes(dst, src []Vec) {
	if len(src) == 0 {
		for _, d := range dst {
			d.Clear()
		}
		return
	}
	n, m := len(src), src[0].Len()
	if len(dst) != m || (m > 0 && dst[0].Len() < n) {
		panic("bits: shape mismatch in TransposePlanes")
	}
	var tile [64]uint64
	for bi := 0; bi < (n+63)/64; bi++ { // block row: src vectors 64·bi …
		for bj := 0; bj < (m+63)/64; bj++ { // block col: src bits 64·bj …
			rows := n - bi*64
			if rows > 64 {
				rows = 64
			}
			for r := 0; r < rows; r++ {
				tile[r] = src[bi*64+r].Word(bj)
			}
			for r := rows; r < 64; r++ {
				tile[r] = 0
			}
			transpose64(&tile)
			cols := m - bj*64
			if cols > 64 {
				cols = 64
			}
			for c := 0; c < cols; c++ {
				dst[bj*64+c].SetWord(bi, tile[c])
			}
		}
	}
	for _, d := range dst {
		for i := (n + 63) / 64; i < d.Words(); i++ {
			d.SetWord(i, 0)
		}
	}
}

// AppendPlaneSupports is the plane-major route to the lists that
// TransposePlanes then AppendSupport per row builds: for every set bit
// j of planes[i] it appends base+i to lists[j], planes in order — one
// probe per word, one append per set bit, nothing transposed.
func AppendPlaneSupports(lists [][]int, planes []Vec, base int) {
	for i, p := range planes {
		for wi, w := range p.words {
			for ; w != 0; w &= w - 1 {
				j := wi*wordBits + trailingZeros64(w)
				lists[j] = append(lists[j], base+i)
			}
		}
	}
}

// AppendSlabSupports is AppendPlaneSupports over a slab of planes of w
// words each: the sweep reads words alone, no vector headers.
func AppendSlabSupports(lists [][]int, slab []uint64, w, base int) {
	for k, x := range slab {
		if x == 0 {
			continue
		}
		i, off := base+k/w, k%w*wordBits
		for ; x != 0; x &= x - 1 {
			j := off + trailingZeros64(x)
			lists[j] = append(lists[j], i)
		}
	}
}

// transpose64 transposes a 64×64 bit tile in place (bit j of word i moves
// to bit i of word j) by recursive halves — the Hacker's Delight network:
// swap the off-diagonal 32×32 quadrants, then 16×16, … down to 1×1.
func transpose64(t *[64]uint64) {
	m := uint64(0x00000000ffffffff)
	for j := 32; j != 0; j, m = j>>1, m^(m<<uint(j>>1)) {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			x := (t[k]>>uint(j) ^ t[k+j]) & m
			t[k] ^= x << uint(j)
			t[k+j] ^= x
		}
	}
}

func popcount(x uint64) int { return mbits.OnesCount64(x) }
