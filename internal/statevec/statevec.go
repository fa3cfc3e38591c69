// Package statevec is a dense state-vector simulator for small registers
// (up to ~20 qubits). It supports arbitrary single-qubit unitaries and the
// non-Clifford gates (Toffoli, small rotations) that the stabilizer
// tableau cannot represent, and is used to cross-validate the tableau
// simulator and to run the systematic-error experiments of Preskill §6.
//
// Qubit q corresponds to bit q (least significant = qubit 0) of the
// amplitude index.
package statevec

import (
	"math"
	"math/cmplx"
	"math/rand/v2"

	"ftqc/internal/pauli"
)

// State is a pure state of n qubits.
type State struct {
	n   int
	amp []complex128
}

// NewZero returns |0…0⟩ on n qubits.
func NewZero(n int) *State {
	if n < 0 || n > 26 {
		panic("statevec: unsupported qubit count")
	}
	s := &State{n: n, amp: make([]complex128, 1<<uint(n))}
	s.amp[0] = 1
	return s
}

// Clone returns an independent copy.
func (s *State) Clone() *State {
	c := &State{n: s.n, amp: make([]complex128, len(s.amp))}
	copy(c.amp, s.amp)
	return c
}

// Amplitude returns the amplitude of basis state index b.
func (s *State) Amplitude(b int) complex128 { return s.amp[b] }

// Apply1Q applies the 2x2 unitary m (row-major: m[r][c]) to qubit q.
func (s *State) Apply1Q(m [2][2]complex128, q int) {
	bit := 1 << uint(q)
	for i := 0; i < len(s.amp); i++ {
		if i&bit != 0 {
			continue
		}
		a0, a1 := s.amp[i], s.amp[i|bit]
		s.amp[i] = m[0][0]*a0 + m[0][1]*a1
		s.amp[i|bit] = m[1][0]*a0 + m[1][1]*a1
	}
}

var (
	sqrt1_2 = complex(1/math.Sqrt2, 0)

	matH = [2][2]complex128{{sqrt1_2, sqrt1_2}, {sqrt1_2, -sqrt1_2}}
	matX = [2][2]complex128{{0, 1}, {1, 0}}
	matY = [2][2]complex128{{0, -1i}, {1i, 0}}
	matZ = [2][2]complex128{{1, 0}, {0, -1}}
	matS = [2][2]complex128{{1, 0}, {0, 1i}}
	matT = [2][2]complex128{{1, 0}, {0, cmplx.Exp(1i * math.Pi / 4)}}
)

// H applies the Hadamard rotation R of Preskill Eq. (9) to qubit q.
func (s *State) H(q int) { s.Apply1Q(matH, q) }

// X applies a bit flip.
func (s *State) X(q int) { s.Apply1Q(matX, q) }

// Y applies the Hermitian Y gate.
func (s *State) Y(q int) { s.Apply1Q(matY, q) }

// Z applies a phase flip.
func (s *State) Z(q int) { s.Apply1Q(matZ, q) }

// S applies the phase gate P = diag(1, i) of Preskill Eq. (22).
func (s *State) S(q int) { s.Apply1Q(matS, q) }

// RotZ applies exp(-i θ Z / 2).
func (s *State) RotZ(q int, theta float64) {
	e0 := cmplx.Exp(complex(0, -theta/2))
	e1 := cmplx.Exp(complex(0, theta/2))
	s.Apply1Q([2][2]complex128{{e0, 0}, {0, e1}}, q)
}

// RotX applies exp(-i θ X / 2).
func (s *State) RotX(q int, theta float64) {
	c := complex(math.Cos(theta/2), 0)
	sn := complex(0, -math.Sin(theta/2))
	s.Apply1Q([2][2]complex128{{c, sn}, {sn, c}}, q)
}

// CNOT applies a controlled-NOT with control c and target t.
func (s *State) CNOT(c, t int) {
	cb, tb := 1<<uint(c), 1<<uint(t)
	for i := 0; i < len(s.amp); i++ {
		if i&cb != 0 && i&tb == 0 {
			s.amp[i], s.amp[i|tb] = s.amp[i|tb], s.amp[i]
		}
	}
}

// CZ applies a controlled-Z between qubits a and b.
func (s *State) CZ(a, b int) {
	ab := 1<<uint(a) | 1<<uint(b)
	for i := 0; i < len(s.amp); i++ {
		if i&ab == ab {
			s.amp[i] = -s.amp[i]
		}
	}
}

// Toffoli applies the controlled-controlled-NOT of Preskill Fig. 1 with
// controls c1, c2 and target t.
func (s *State) Toffoli(c1, c2, t int) {
	cb := 1<<uint(c1) | 1<<uint(c2)
	tb := 1 << uint(t)
	for i := 0; i < len(s.amp); i++ {
		if i&cb == cb && i&tb == 0 {
			s.amp[i], s.amp[i|tb] = s.amp[i|tb], s.amp[i]
		}
	}
}

// CCZ applies a controlled-controlled-Z (the "three-bit phase gate" of
// Preskill §4.1).
func (s *State) CCZ(a, b, c int) {
	mask := 1<<uint(a) | 1<<uint(b) | 1<<uint(c)
	for i := 0; i < len(s.amp); i++ {
		if i&mask == mask {
			s.amp[i] = -s.amp[i]
		}
	}
}

// ApplyPauli applies the Pauli unitary p (including its phase).
func (s *State) ApplyPauli(p pauli.Pauli) {
	if p.N() != s.n {
		panic("statevec: Pauli size mismatch")
	}
	phase := [4]complex128{1, 1i, -1, -1i}[p.Phase]
	out := make([]complex128, len(s.amp))
	var xmask int
	for q := 0; q < s.n; q++ {
		if p.XBits.Get(q) {
			xmask |= 1 << uint(q)
		}
	}
	for b, a := range s.amp {
		if a == 0 {
			continue
		}
		sign := complex128(1)
		for q := 0; q < s.n; q++ {
			if p.ZBits.Get(q) && b&(1<<uint(q)) != 0 {
				sign = -sign
			}
		}
		out[b^xmask] += phase * sign * a
	}
	s.amp = out
}

// ExpectPauli returns the real expectation value ⟨ψ|p|ψ⟩ (p Hermitian).
func (s *State) ExpectPauli(p pauli.Pauli) float64 {
	if p.N() != s.n {
		panic("statevec: Pauli size mismatch")
	}
	phase := [4]complex128{1, 1i, -1, -1i}[p.Phase]
	var xmask int
	for q := 0; q < s.n; q++ {
		if p.XBits.Get(q) {
			xmask |= 1 << uint(q)
		}
	}
	var acc complex128
	for b, a := range s.amp {
		if a == 0 {
			continue
		}
		sign := complex128(1)
		for q := 0; q < s.n; q++ {
			if p.ZBits.Get(q) && b&(1<<uint(q)) != 0 {
				sign = -sign
			}
		}
		// ⟨ψ|P|ψ⟩ = Σ_b conj(ψ[b^x]) · phase · (-1)^{z·b} · ψ[b]
		acc += cmplxConj(s.amp[b^xmask]) * phase * sign * a
	}
	return real(acc)
}

func cmplxConj(c complex128) complex128 { return complex(real(c), -imag(c)) }

// Prob1 returns the probability of reading 1 on qubit q.
func (s *State) Prob1(q int) float64 {
	bit := 1 << uint(q)
	p := 0.0
	for i, a := range s.amp {
		if i&bit != 0 {
			p += real(a)*real(a) + imag(a)*imag(a)
		}
	}
	return p
}

// MeasureZ measures qubit q, collapsing the state, and returns the outcome.
func (s *State) MeasureZ(q int, rng *rand.Rand) bool {
	p1 := s.Prob1(q)
	out := rng.Float64() < p1
	s.project(q, out)
	return out
}

// project collapses qubit q onto the given outcome and renormalizes.
func (s *State) project(q int, one bool) {
	bit := 1 << uint(q)
	norm := 0.0
	for i := range s.amp {
		keep := (i&bit != 0) == one
		if !keep {
			s.amp[i] = 0
		} else {
			norm += real(s.amp[i])*real(s.amp[i]) + imag(s.amp[i])*imag(s.amp[i])
		}
	}
	if norm == 0 {
		panic("statevec: projection onto zero-probability outcome")
	}
	scale := complex(1/math.Sqrt(norm), 0)
	for i := range s.amp {
		s.amp[i] *= scale
	}
}

// InnerProduct returns ⟨a|b⟩.
func InnerProduct(a, b *State) complex128 {
	if a.n != b.n {
		panic("statevec: size mismatch")
	}
	var acc complex128
	for i := range a.amp {
		acc += cmplxConj(a.amp[i]) * b.amp[i]
	}
	return acc
}

// Fidelity returns |⟨a|b⟩|², the fidelity of Preskill Eq. (14) for pure
// states.
func Fidelity(a, b *State) float64 {
	ip := InnerProduct(a, b)
	return real(ip)*real(ip) + imag(ip)*imag(ip)
}
