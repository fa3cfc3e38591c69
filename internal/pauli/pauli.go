// Package pauli implements the n-qubit Pauli group in the symplectic
// (X-bits, Z-bits, phase) representation used throughout stabilizer
// coding theory: a Pauli operator is i^phase · X^x · Z^z with x, z ∈
// GF(2)^n. This is the algebra underlying the 7-qubit code of Preskill §2,
// the stabilizer formalism of §3.6 and the error operators of §4.2.
package pauli

import (
	"fmt"
	"strings"

	"ftqc/internal/bits"
)

// Single identifies a one-qubit Pauli operator.
type Single uint8

// One-qubit Pauli operators. Y is defined as i·X·Z so that X, Y, Z are all
// Hermitian; the paper's Eq. (5) uses Y = X·Z which differs by a phase
// that cancels everywhere phases matter here.
const (
	I Single = iota
	X
	Z
	Y
)

// String returns "I", "X", "Y" or "Z".
func (s Single) String() string {
	switch s {
	case I:
		return "I"
	case X:
		return "X"
	case Z:
		return "Z"
	case Y:
		return "Y"
	}
	return "?"
}

// Pauli is an n-qubit Pauli operator i^Phase · X^xbits · Z^zbits.
// Phase is defined modulo 4. The zero value is not usable; construct with
// NewIdentity, FromString or the algebra methods.
type Pauli struct {
	XBits bits.Vec
	ZBits bits.Vec
	Phase uint8 // power of i, mod 4
}

// NewIdentity returns the identity operator on n qubits.
func NewIdentity(n int) Pauli {
	return Pauli{XBits: bits.NewVec(n), ZBits: bits.NewVec(n)}
}

// FromString parses strings like "XIZZY" or "+XIZ", "-IZ", "iX", "-iZZ".
func FromString(s string) (Pauli, error) {
	phase := uint8(0)
	body := s
	switch {
	case strings.HasPrefix(s, "+i") || strings.HasPrefix(s, "i"):
		phase = 1
		body = strings.TrimPrefix(strings.TrimPrefix(s, "+"), "i")
	case strings.HasPrefix(s, "-i"):
		phase = 3
		body = strings.TrimPrefix(s, "-i")
	case strings.HasPrefix(s, "-"):
		phase = 2
		body = strings.TrimPrefix(s, "-")
	case strings.HasPrefix(s, "+"):
		body = strings.TrimPrefix(s, "+")
	}
	p := NewIdentity(len(body))
	p.Phase = phase
	for i, c := range body {
		switch c {
		case 'I':
		case 'X':
			p.XBits.Set(i, true)
		case 'Z':
			p.ZBits.Set(i, true)
		case 'Y':
			p.XBits.Set(i, true)
			p.ZBits.Set(i, true)
			p.Phase = (p.Phase + 1) % 4 // Y = i·X·Z
		default:
			return Pauli{}, fmt.Errorf("pauli: invalid character %q in %q", c, s)
		}
	}
	return p, nil
}

// MustFromString parses like FromString and panics on malformed input.
func MustFromString(s string) Pauli {
	p, err := FromString(s)
	if err != nil {
		panic(err)
	}
	return p
}

// N returns the number of qubits the operator acts on.
func (p Pauli) N() int { return p.XBits.Len() }

// At returns the one-qubit operator acting on qubit i, ignoring phase.
func (p Pauli) At(i int) Single {
	x, z := p.XBits.Get(i), p.ZBits.Get(i)
	switch {
	case x && z:
		return Y
	case x:
		return X
	case z:
		return Z
	}
	return I
}

// SetAt sets the one-qubit operator on qubit i (phase is not adjusted;
// use this to build unsigned error patterns).
func (p *Pauli) SetAt(i int, s Single) {
	p.XBits.Set(i, s == X || s == Y)
	p.ZBits.Set(i, s == Z || s == Y)
}

// Clone returns an independent copy.
func (p Pauli) Clone() Pauli {
	return Pauli{XBits: p.XBits.Clone(), ZBits: p.ZBits.Clone(), Phase: p.Phase}
}

// Weight returns the number of qubits on which p acts nontrivially.
func (p Pauli) Weight() int {
	w := 0
	for i := 0; i < p.N(); i++ {
		if p.XBits.Get(i) || p.ZBits.Get(i) {
			w++
		}
	}
	return w
}

// Commutes reports whether p and q commute. Two Paulis either commute or
// anticommute; they anticommute iff the symplectic form x_p·z_q + x_q·z_p
// is 1.
func (p Pauli) Commutes(q Pauli) bool {
	if p.N() != q.N() {
		panic("pauli: qubit count mismatch")
	}
	return p.XBits.Dot(q.ZBits) == q.XBits.Dot(p.ZBits)
}

// Mul returns the product p·q with the correct phase.
//
// Writing p = i^a X^x1 Z^z1, q = i^b X^x2 Z^z2, moving Z^z1 past X^x2
// contributes (-1)^(z1·x2), so
// p·q = i^(a+b+2·z1·x2) X^(x1+x2) Z^(z1+z2).
func (p Pauli) Mul(q Pauli) Pauli {
	if p.N() != q.N() {
		panic("pauli: qubit count mismatch")
	}
	r := Pauli{
		XBits: p.XBits.Clone(),
		ZBits: p.ZBits.Clone(),
		Phase: (p.Phase + q.Phase) % 4,
	}
	if p.ZBits.Dot(q.XBits) {
		r.Phase = (r.Phase + 2) % 4
	}
	r.XBits.Xor(q.XBits)
	r.ZBits.Xor(q.ZBits)
	return r
}

// Equal reports exact equality including phase.
func (p Pauli) Equal(q Pauli) bool {
	return p.Phase == q.Phase && p.XBits.Equal(q.XBits) && p.ZBits.Equal(q.ZBits)
}

// EqualUpToPhase reports equality of the unsigned operator.
func (p Pauli) EqualUpToPhase(q Pauli) bool {
	return p.XBits.Equal(q.XBits) && p.ZBits.Equal(q.ZBits)
}

// String renders the operator with a phase prefix, e.g. "-XIZ" or "iYY".
func (p Pauli) String() string {
	// Present the letters first, computing the residual phase after
	// extracting one factor of i per Y.
	phase := p.Phase
	var sb strings.Builder
	for i := 0; i < p.N(); i++ {
		s := p.At(i)
		if s == Y {
			phase = (phase + 3) % 4 // remove the i contributed by Y = iXZ
		}
		sb.WriteString(s.String())
	}
	prefix := [4]string{"", "i", "-", "-i"}[phase]
	return prefix + sb.String()
}

// Embed maps p, defined on len(qubits) qubits, onto an n-qubit register
// where qubit i of p acts on wire qubits[i].
func (p Pauli) Embed(n int, qubits []int) Pauli {
	if len(qubits) != p.N() {
		panic("pauli: embed wire count mismatch")
	}
	out := NewIdentity(n)
	out.Phase = p.Phase
	for i, q := range qubits {
		out.XBits.Set(q, p.XBits.Get(i))
		out.ZBits.Set(q, p.ZBits.Get(i))
	}
	return out
}

// SingleQubit returns the n-qubit operator that applies s on qubit q and
// identity elsewhere.
func SingleQubit(n, q int, s Single) Pauli {
	p := NewIdentity(n)
	p.SetAt(q, s)
	if s == Y {
		p.Phase = 1
	}
	return p
}
