package code

import (
	"ftqc/internal/bits"
	"ftqc/internal/classical"
	"ftqc/internal/pauli"
)

// Decoder maps syndromes to minimum-weight Pauli corrections, precomputed
// by enumerating errors in order of increasing weight — the quantum
// analogue of classical coset-leader decoding.
type Decoder struct {
	code  *Code
	table map[string]pauli.Pauli
}

// NewDecoder builds a lookup decoder covering all errors up to maxWeight.
// For a distance-d code, maxWeight = (d−1)/2 guarantees correction of
// every correctable error; larger values fill in best-effort corrections
// for heavier syndromes.
func NewDecoder(c *Code, maxWeight int) *Decoder {
	d := &Decoder{code: c, table: make(map[string]pauli.Pauli)}
	d.table[bits.NewVec(len(c.Generators)).Key()] = pauli.NewIdentity(c.N)
	for w := 1; w <= maxWeight; w++ {
		var rec func(p pauli.Pauli, start, left int)
		rec = func(p pauli.Pauli, start, left int) {
			if left == 0 {
				key := c.Syndrome(p).Key()
				if _, seen := d.table[key]; !seen {
					d.table[key] = p.Clone()
				}
				return
			}
			for i := start; i <= c.N-left; i++ {
				for _, s := range []pauli.Single{pauli.X, pauli.Y, pauli.Z} {
					p.SetAt(i, s)
					rec(p, i+1, left-1)
					p.SetAt(i, pauli.I)
				}
			}
		}
		rec(pauli.NewIdentity(c.N), 0, w)
	}
	return d
}

// Correction returns a recovery operator for the syndrome, with ok = false
// when the syndrome was not reachable within the decoder's weight bound
// (in which case the identity is returned).
func (d *Decoder) Correction(syndrome bits.Vec) (pauli.Pauli, bool) {
	p, ok := d.table[syndrome.Key()]
	if !ok {
		return pauli.NewIdentity(d.code.N), false
	}
	return p.Clone(), true
}

// DecodeError applies the decoder to an actual error pattern: it returns
// the residual operator error·correction and whether recovery succeeded
// (residual is a stabilizer element, not a logical error).
func (d *Decoder) DecodeError(err pauli.Pauli) (residual pauli.Pauli, success bool) {
	corr, _ := d.Correction(d.code.Syndrome(err))
	residual = err.Mul(corr)
	x, z := d.code.LogicalClass(residual)
	return residual, x.Zero() && z.Zero()
}

// CSSDecoder decodes the bit-flip and phase-flip sectors of a CSS code
// independently, exactly as Preskill §2 prescribes for the 7-qubit code
// ("performing the parity check in both bases completely diagnoses the
// error"). This is what makes an X error on one qubit plus a Z error on
// another simultaneously correctable.
type CSSDecoder struct {
	css  *CSS
	clsZ *classical.Code // decodes HZ syndromes (X-error supports)
	clsX *classical.Code // decodes HX syndromes (Z-error supports)
}

// NewCSSDecoder builds the sector decoders from the CSS parity checks.
func NewCSSDecoder(c *CSS) *CSSDecoder {
	return &CSSDecoder{
		css:  c,
		clsZ: classical.MustNew(c.Name+"/Z", c.HZ),
		clsX: classical.MustNew(c.Name+"/X", c.HX),
	}
}

// Correction returns the recovery operator for the two sector syndromes.
func (d *CSSDecoder) Correction(bitSyn, phaseSyn bits.Vec) pauli.Pauli {
	xs, _ := d.clsZ.DecodeError(bitSyn)
	zs, _ := d.clsX.DecodeError(phaseSyn)
	corr := pauli.NewIdentity(d.css.N)
	corr.XBits.Xor(xs)
	corr.ZBits.Xor(zs)
	return corr
}

// DecodeError decodes an actual Pauli error and reports whether the
// residual is trivial on the logical qubits.
func (d *CSSDecoder) DecodeError(err pauli.Pauli) (residual pauli.Pauli, success bool) {
	corr := d.Correction(d.css.BitFlipSyndrome(err.XBits), d.css.PhaseFlipSyndrome(err.ZBits))
	residual = err.Mul(corr)
	x, z := d.css.LogicalClass(residual)
	return residual, x.Zero() && z.Zero()
}
