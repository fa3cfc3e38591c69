// Package classical implements classical binary linear error-correcting
// codes: a generic [n,k] linear code with syndrome decoding, the [7,4,3]
// Hamming code that underlies Steane's 7-qubit code (Preskill §2, Eq. 1),
// and repetition codes used to build the Shor code family.
package classical

import (
	"fmt"

	"ftqc/internal/bits"
)

// Code is a binary linear [n,k] code described by a parity-check matrix H
// (rows are checks) and a generator matrix G (rows span the code).
type Code struct {
	Name string
	N    int // block length
	K    int // message length
	H    *bits.Matrix
	G    *bits.Matrix

	// decodeTable maps syndrome keys to a minimum-weight coset leader.
	decodeTable map[string]bits.Vec
}

// New builds a code from a parity-check matrix. The generator is computed
// as a basis of ker H. An error is returned if H has dependent rows.
func New(name string, h *bits.Matrix) (*Code, error) {
	if h.Rank() != h.Rows() {
		return nil, fmt.Errorf("classical: parity check for %s has dependent rows", name)
	}
	g := h.Kernel()
	c := &Code{Name: name, N: h.Cols(), K: g.Rows(), H: h, G: g}
	return c, nil
}

// MustNew is New that panics on error; for known-good literal tables.
func MustNew(name string, h *bits.Matrix) *Code {
	c, err := New(name, h)
	if err != nil {
		panic(err)
	}
	return c
}

// Encode maps a k-bit message to an n-bit codeword (message · G).
func (c *Code) Encode(msg bits.Vec) bits.Vec {
	if msg.Len() != c.K {
		panic("classical: message length mismatch")
	}
	out := bits.NewVec(c.N)
	for i := 0; i < c.K; i++ {
		if msg.Get(i) {
			out.Xor(c.G.Row(i))
		}
	}
	return out
}

// Syndrome returns H · word.
func (c *Code) Syndrome(word bits.Vec) bits.Vec { return c.H.MulVec(word) }

// IsCodeword reports whether the word satisfies every parity check.
func (c *Code) IsCodeword(word bits.Vec) bool { return c.Syndrome(word).Zero() }

// buildDecodeTable enumerates errors in order of increasing weight up to
// maxWeight and records the first (hence minimum-weight) error for each
// syndrome. It covers all syndromes when maxWeight is large enough.
func (c *Code) buildDecodeTable(maxWeight int) {
	c.decodeTable = make(map[string]bits.Vec)
	// Enumerate by increasing weight so lighter errors claim syndromes first.
	for w := 0; w <= maxWeight; w++ {
		var recW func(e bits.Vec, start, left int)
		recW = func(e bits.Vec, start, left int) {
			if left == 0 {
				key := c.Syndrome(e).Key()
				if _, seen := c.decodeTable[key]; !seen {
					c.decodeTable[key] = e.Clone()
				}
				return
			}
			for i := start; i < c.N; i++ {
				e.Flip(i)
				recW(e, i+1, left-1)
				e.Flip(i)
			}
		}
		recW(bits.NewVec(c.N), 0, w)
	}
}

// DecodeError returns a minimum-weight error pattern consistent with the
// given syndrome (a coset leader), and ok=false if the syndrome was never
// seen while building the table.
func (c *Code) DecodeError(syndrome bits.Vec) (bits.Vec, bool) {
	if c.decodeTable == nil {
		c.buildDecodeTable(min(c.N, 4))
	}
	e, ok := c.decodeTable[syndrome.Key()]
	if !ok {
		return bits.NewVec(c.N), false
	}
	return e.Clone(), true
}

// Correct returns the word with its decoded error removed.
func (c *Code) Correct(word bits.Vec) bits.Vec {
	e, _ := c.DecodeError(c.Syndrome(word))
	out := word.Clone()
	out.Xor(e)
	return out
}

// MinDistance computes the code's minimum distance by brute force over
// messages. Exponential in K; fine for the small codes used here.
func (c *Code) MinDistance() int {
	best := c.N + 1
	for m := 1; m < 1<<uint(c.K); m++ {
		msg := bits.NewVec(c.K)
		for i := 0; i < c.K; i++ {
			if m>>uint(i)&1 == 1 {
				msg.Set(i, true)
			}
		}
		if w := c.Encode(msg).Weight(); w < best {
			best = w
		}
	}
	return best
}

// Codewords enumerates all 2^K codewords. Exponential in K.
func (c *Code) Codewords() []bits.Vec {
	words := make([]bits.Vec, 0, 1<<uint(c.K))
	for m := 0; m < 1<<uint(c.K); m++ {
		msg := bits.NewVec(c.K)
		for i := 0; i < c.K; i++ {
			if m>>uint(i)&1 == 1 {
				msg.Set(i, true)
			}
		}
		words = append(words, c.Encode(msg))
	}
	return words
}

// Hamming743 returns the [7,4,3] Hamming code with the parity-check matrix
// of Preskill Eq. (1): column j (1-based) is the binary representation
// of j, so the syndrome directly names the flipped bit.
func Hamming743() *Code {
	h := bits.MatrixFromStrings(
		"0001111",
		"0110011",
		"1010101",
	)
	return MustNew("Hamming[7,4,3]", h)
}

// Repetition returns the [n,1,n] repetition code.
func Repetition(n int) *Code {
	if n < 2 {
		panic("classical: repetition length must be at least 2")
	}
	h := bits.NewMatrix(n-1, n)
	for i := 0; i < n-1; i++ {
		h.Set(i, i, true)
		h.Set(i, i+1, true)
	}
	return MustNew(fmt.Sprintf("Repetition[%d,1,%d]", n, n), h)
}
