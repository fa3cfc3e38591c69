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

// Syndrome returns H · word.
func (c *Code) Syndrome(word bits.Vec) bits.Vec { return c.H.MulVec(word) }

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
