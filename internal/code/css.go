package code

import (
	"fmt"

	"ftqc/internal/bits"
	"ftqc/internal/classical"
	"ftqc/internal/pauli"
)

// CSS is a Calderbank–Shor–Steane code: Z-type generators from the rows of
// HZ detect bit flips, X-type generators from the rows of HX detect phase
// flips (Preskill §3.6, Eq. 21 splits the generator list exactly this way).
type CSS struct {
	*Code
	HZ *bits.Matrix // Z-generator supports (detect X errors)
	HX *bits.Matrix // X-generator supports (detect Z errors)
}

// pauliFromSupport builds an n-qubit Pauli with the given single type on
// the support of v.
func pauliFromSupport(v bits.Vec, s pauli.Single) pauli.Pauli {
	p := pauli.NewIdentity(v.Len())
	for i := 0; i < v.Len(); i++ {
		if v.Get(i) {
			p.SetAt(i, s)
		}
	}
	return p
}

// NewCSS builds a CSS code from two parity-check matrices over the same
// block length. Every row of hz must be orthogonal to every row of hx
// (so the Z and X generators commute).
func NewCSS(name string, hz, hx *bits.Matrix) (*CSS, error) {
	if hz.Cols() != hx.Cols() {
		return nil, fmt.Errorf("css %s: block length mismatch", name)
	}
	n := hz.Cols()
	for i := 0; i < hz.Rows(); i++ {
		for j := 0; j < hx.Rows(); j++ {
			if hz.Row(i).Dot(hx.Row(j)) {
				return nil, fmt.Errorf("css %s: hz row %d not orthogonal to hx row %d", name, i, j)
			}
		}
	}
	gens := make([]pauli.Pauli, 0, hz.Rows()+hx.Rows())
	for i := 0; i < hz.Rows(); i++ {
		gens = append(gens, pauliFromSupport(hz.Row(i), pauli.Z))
	}
	for i := 0; i < hx.Rows(); i++ {
		gens = append(gens, pauliFromSupport(hx.Row(i), pauli.X))
	}
	// Logical X operators: X-strings commuting with all Z generators
	// (support in ker hz), modulo the X-stabilizer row space (hx rows).
	logXSupports := quotientBasis(hz.Kernel(), hx)
	// Logical Z likewise with roles swapped.
	logZSupports := quotientBasis(hx.Kernel(), hz)
	if len(logXSupports) != len(logZSupports) {
		return nil, fmt.Errorf("css %s: logical space mismatch (%d X vs %d Z)",
			name, len(logXSupports), len(logZSupports))
	}
	k := len(logXSupports)
	// Pair the bases so that X̂ᵢ anticommutes with Ẑⱼ exactly when i = j:
	// M_ij = x_i · z_j must become the identity; replace z by z·M⁻ᵀ.
	if k > 0 {
		m := bits.NewMatrix(k, k)
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				m.Set(i, j, logXSupports[i].Dot(logZSupports[j]))
			}
		}
		inv, ok := m.Inverse()
		if !ok {
			return nil, fmt.Errorf("css %s: degenerate logical pairing", name)
		}
		newZ := make([]bits.Vec, k)
		for j := 0; j < k; j++ {
			v := bits.NewVec(n)
			for l := 0; l < k; l++ {
				if inv.Get(l, j) {
					v.Xor(logZSupports[l])
				}
			}
			newZ[j] = v
		}
		logZSupports = newZ
	}
	logX := make([]pauli.Pauli, k)
	logZ := make([]pauli.Pauli, k)
	for i := 0; i < k; i++ {
		logX[i] = pauliFromSupport(logXSupports[i], pauli.X)
		logZ[i] = pauliFromSupport(logZSupports[i], pauli.Z)
	}
	c, err := New(name, gens, logX, logZ)
	if err != nil {
		return nil, err
	}
	return &CSS{Code: c, HZ: hz, HX: hx}, nil
}

// quotientBasis returns vectors from the row space of space that extend
// the row space of sub to a basis of space's row space (i.e. a basis for
// rowspace(space)/rowspace(sub)).
func quotientBasis(space, sub *bits.Matrix) []bits.Vec {
	span := sub.Clone()
	var out []bits.Vec
	for i := 0; i < space.Rows(); i++ {
		v := space.Row(i)
		if !span.InSpan(v) {
			out = append(out, v.Clone())
			span = span.Stack(rowMatrix(v))
		}
	}
	return out
}

func rowMatrix(v bits.Vec) *bits.Matrix {
	m := bits.NewMatrix(1, v.Len())
	m.SetRow(0, v)
	return m
}

// MustNewCSS is NewCSS that panics on error.
func MustNewCSS(name string, hz, hx *bits.Matrix) *CSS {
	c, err := NewCSS(name, hz, hx)
	if err != nil {
		panic(err)
	}
	return c
}

// BitFlipSyndrome returns HZ · x, the syndrome a pattern of bit flips
// (X errors with support x) produces on the Z generators.
func (c *CSS) BitFlipSyndrome(x bits.Vec) bits.Vec { return c.HZ.MulVec(x) }

// PhaseFlipSyndrome returns HX · z for phase-flip support z.
func (c *CSS) PhaseFlipSyndrome(z bits.Vec) bits.Vec { return c.HX.MulVec(z) }

// Steane returns Steane's [[7,1,3]] code built from the [7,4,3] Hamming
// code in both bases (Preskill §2 and Eq. 18). Its logical X̂ and Ẑ are
// weight-7 transversal operators reduced by the pairing to the standard
// choice.
func Steane() *CSS {
	h := classical.Hamming743().H
	c := MustNewCSS("Steane[[7,1,3]]", h, h)
	// Prefer the canonical transversal logicals X̂ = X⊗7, Ẑ = Z⊗7 (both
	// valid: all-ones is a Hamming codeword, §4.1).
	ones := bits.MustFromString("1111111")
	c.LogicalX = []pauli.Pauli{pauliFromSupport(ones, pauli.X)}
	c.LogicalZ = []pauli.Pauli{pauliFromSupport(ones, pauli.Z)}
	return c
}

// ShorFamily returns the [[(2t+1)², 1, 2t+1]] generalization of Shor's
// code that Preskill §5 attributes to Shor's original family (block size
// growing like t²): a repetition code of repetition codes.
func ShorFamily(t int) *CSS {
	if t < 1 {
		panic("code: ShorFamily needs t >= 1")
	}
	r := 2*t + 1
	n := r * r
	// Z checks: adjacent pairs within each block of r qubits.
	hz := bits.NewMatrix(r*(r-1), n)
	row := 0
	for b := 0; b < r; b++ {
		for i := 0; i < r-1; i++ {
			hz.Set(row, b*r+i, true)
			hz.Set(row, b*r+i+1, true)
			row++
		}
	}
	// X checks: all qubits of two adjacent blocks.
	hx := bits.NewMatrix(r-1, n)
	for b := 0; b < r-1; b++ {
		for i := 0; i < 2*r; i++ {
			hx.Set(b, b*r+i, true)
		}
	}
	return MustNewCSS(fmt.Sprintf("Shor[[%d,1,%d]]", n, r), hz, hx)
}

// FiveQubit returns the non-CSS [[5,1,3]] code of Preskill §4.2
// (refs. 36–37), the smallest code correcting an arbitrary single error.
func FiveQubit() *Code {
	gens := []pauli.Pauli{
		pauli.MustFromString("XZZXI"),
		pauli.MustFromString("IXZZX"),
		pauli.MustFromString("XIXZZ"),
		pauli.MustFromString("ZXIXZ"),
	}
	logX := []pauli.Pauli{pauli.MustFromString("XXXXX")}
	logZ := []pauli.Pauli{pauli.MustFromString("ZZZZZ")}
	return MustNew("Five[[5,1,3]]", gens, logX, logZ)
}
