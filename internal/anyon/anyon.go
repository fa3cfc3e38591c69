// Package anyon simulates the topological quantum computer of Preskill
// §7.3–§7.4: qubits are encoded in pairs of nonabelian fluxons
// |u, u⁻¹⟩ labeled by elements of a finite group G (A₅ for
// universality). Logic is performed by the pull-through operation of
// Fig. 20 / Eq. (41) — conjugation of one flux pair by another — and by
// interferometric flux and charge measurements (Figs. 18 and 22), which
// are made fault tolerant by repetition.
package anyon

import (
	"fmt"
	"math"
	"math/rand/v2"

	"ftqc/internal/group"
)

// Register is a quantum state of k flux pairs over the group G: a sparse
// superposition over basis states, each basis state assigning a group
// element (the flux of the pair's first member; the partner carries the
// inverse) to every pair.
type Register struct {
	G     *group.Group
	K     int
	amp   map[string]complex128
	basis map[string][]int // key → element indices (cached decoding)

	// Pulls counts elementary pull-through operations (braiding cost).
	Pulls int
}

// NewRegister creates k flux pairs, each initialized to the calibrated
// flux u0 drawn from the Flux Bureau of Standards (Fig. 19).
func NewRegister(g *group.Group, k int, u0 group.Perm) *Register {
	r := &Register{G: g, K: k, amp: map[string]complex128{}, basis: map[string][]int{}}
	idx := r.elemIndex(u0)
	state := make([]int, k)
	for i := range state {
		state[i] = idx
	}
	r.set(state, 1)
	return r
}

func (r *Register) elemIndex(p group.Perm) int {
	for i, e := range r.G.Elements {
		if e.Equal(p) {
			return i
		}
	}
	panic("anyon: element not in group")
}

func key(state []int) string {
	b := make([]byte, 0, len(state)*3)
	for _, s := range state {
		b = append(b, byte(s), byte(s>>8), ';')
	}
	return string(b)
}

func (r *Register) set(state []int, a complex128) {
	k := key(state)
	if a == 0 {
		delete(r.amp, k)
		return
	}
	r.amp[k] = a
	st := make([]int, len(state))
	copy(st, state)
	r.basis[k] = st
}

// Terms returns the number of basis states in superposition.
func (r *Register) Terms() int { return len(r.amp) }

// mapBasis applies a basis permutation f: state → newState (unitary when
// f is injective, which conjugation maps are).
func (r *Register) mapBasis(f func(state []int) []int) {
	newAmp := map[string]complex128{}
	newBasis := map[string][]int{}
	for k, a := range r.amp {
		ns := f(r.basis[k])
		nk := key(ns)
		newAmp[nk] += a
		newBasis[nk] = ns
	}
	r.amp = newAmp
	r.basis = newBasis
}

// PullThrough pulls pair `target` through pair `control` (Fig. 20): the
// control pair is unmodified while the target flux is conjugated,
// u_t → u_c⁻¹ · u_t · u_c (Eq. 41).
func (r *Register) PullThrough(target, control int) {
	r.conjugateBy(target, func(state []int) group.Perm {
		return r.G.Elements[state[control]]
	})
}

// PullThroughInv is the inverse braiding: u_t → u_c · u_t · u_c⁻¹.
func (r *Register) PullThroughInv(target, control int) {
	r.conjugateBy(target, func(state []int) group.Perm {
		return r.G.Elements[state[control]].Inv()
	})
}

// PullThroughFlux pulls the target pair through a calibrated ancilla pair
// of known flux g (withdrawn from the reservoir of §7.4).
func (r *Register) PullThroughFlux(target int, g group.Perm) {
	r.conjugateBy(target, func([]int) group.Perm { return g })
}

func (r *Register) conjugateBy(target int, flux func(state []int) group.Perm) {
	if target < 0 || target >= r.K {
		panic("anyon: register index out of range")
	}
	r.Pulls++
	r.mapBasis(func(state []int) []int {
		g := flux(state)
		u := r.G.Elements[state[target]]
		ns := make([]int, len(state))
		copy(ns, state)
		ns[target] = r.elemIndex(u.Conj(g))
		return ns
	})
}

// MeasureFlux projectively measures the flux of pair i in the group-
// element basis (a perfect Fig. 18 interferometer) and collapses the
// state. It returns the observed element.
func (r *Register) MeasureFlux(i int, rng *rand.Rand) group.Perm {
	// Probability per outcome.
	probs := map[int]float64{}
	for k, a := range r.amp {
		probs[r.basis[k][i]] += real(a)*real(a) + imag(a)*imag(a)
	}
	x := rng.Float64()
	chosen := -1
	for idx, p := range probs {
		if x < p {
			chosen = idx
			break
		}
		x -= p
	}
	if chosen < 0 { // numerical leftovers
		for idx := range probs {
			chosen = idx
			break
		}
	}
	// Collapse and renormalize.
	norm := 0.0
	for k, a := range r.amp {
		if r.basis[k][i] != chosen {
			delete(r.amp, k)
			delete(r.basis, k)
			continue
		}
		norm += real(a)*real(a) + imag(a)*imag(a)
	}
	scale := complex(1/math.Sqrt(norm), 0)
	for k := range r.amp {
		r.amp[k] *= scale
	}
	return r.G.Elements[chosen]
}

// MeasureCharge measures the charge of pair i in the two-dimensional
// flux subspace spanned by {u0, u1} (Fig. 22): it projects onto
// |±⟩ = (|u0⟩ ± |u1⟩)/√2 and returns true for the |−⟩ outcome. Basis
// states with other fluxes are unaffected (they carry distinct charge
// sectors; our computations never mix them).
func (r *Register) MeasureCharge(i int, u0, u1 group.Perm, rng *rand.Rand) bool {
	i0, i1 := r.elemIndex(u0), r.elemIndex(u1)
	// P(−) = Σ |⟨−|ψ⟩|² over pairs of basis states matched on the other
	// registers.
	type bucket struct{ a0, a1 complex128 }
	buckets := map[string]*bucket{}
	for k, a := range r.amp {
		st := r.basis[k]
		if st[i] != i0 && st[i] != i1 {
			panic("anyon: charge measurement outside the computational subspace")
		}
		rest := make([]int, 0, len(st))
		rest = append(rest, st[:i]...)
		rest = append(rest, st[i+1:]...)
		bk := key(rest)
		b := buckets[bk]
		if b == nil {
			b = &bucket{}
			buckets[bk] = b
		}
		if st[i] == i0 {
			b.a0 += a
		} else {
			b.a1 += a
		}
	}
	pMinus := 0.0
	for _, b := range buckets {
		m := (b.a0 - b.a1) / complex(math.Sqrt2, 0)
		pMinus += real(m)*real(m) + imag(m)*imag(m)
	}
	minus := rng.Float64() < pMinus
	// Project: replace (a0, a1) by the component along (|u0⟩ ± |u1⟩)/√2.
	newAmp := map[string]complex128{}
	newBasis := map[string][]int{}
	sign := complex(1, 0)
	if minus {
		sign = -1
	}
	for k, a := range r.amp {
		st := r.basis[k]
		comp := a / 2 // ⟨±|st⟩·(coefficient of |±⟩ expansion)
		if st[i] == i1 {
			comp *= sign
		}
		for _, tgt := range []int{i0, i1} {
			ns := make([]int, len(st))
			copy(ns, st)
			ns[i] = tgt
			c := comp
			if tgt == i1 {
				c *= sign
			}
			nk := key(ns)
			newAmp[nk] += c
			newBasis[nk] = ns
		}
	}
	// Renormalize.
	norm := 0.0
	for _, a := range newAmp {
		norm += real(a)*real(a) + imag(a)*imag(a)
	}
	scale := complex(1/math.Sqrt(norm), 0)
	for k := range newAmp {
		newAmp[k] *= scale
		if newAmp[k] == 0 {
			delete(newAmp, k)
			delete(newBasis, k)
		}
	}
	r.amp = newAmp
	r.basis = newBasis
	return minus
}

// String lists the superposition terms (for debugging and examples).
func (r *Register) String() string {
	out := ""
	for k, a := range r.amp {
		st := r.basis[k]
		out += fmt.Sprintf("(%.3f%+.3fi) |", real(a), imag(a))
		for j, idx := range st {
			if j > 0 {
				out += ","
			}
			out += r.G.Elements[idx].String()
		}
		out += "⟩  "
	}
	return out
}
