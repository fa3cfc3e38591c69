// Package code implements quantum stabilizer codes in the formalism of
// Preskill §3.6 and §4.2: a code on n qubits with k logical qubits is the
// simultaneous +1 eigenspace of n−k commuting Pauli generators, with 2k
// logical operators X̂ᵢ, Ẑᵢ that commute with the stabilizer and obey the
// relations of Eq. (29). The package provides the CSS construction from
// classical codes, Steane's [[7,1,3]] code (Eq. 18), the [[5,1,3]] code,
// Shor's [[9,1,3]] code and its [[(2t+1)²,1,2t+1]] family, a lookup
// decoder, and logical-state preparation on a stabilizer tableau.
package code

import (
	"fmt"

	"ftqc/internal/bits"
	"ftqc/internal/pauli"
)

// Code is an [[n, k]] stabilizer code.
type Code struct {
	Name       string
	N          int           // physical qubits per block
	K          int           // logical qubits per block
	Generators []pauli.Pauli // n−k stabilizer generators
	LogicalX   []pauli.Pauli // X̂ᵢ, i = 0..k-1
	LogicalZ   []pauli.Pauli // Ẑᵢ
}

// symplectic returns the (x|z) row vector of p as a 2n-bit vector.
func symplectic(p pauli.Pauli) bits.Vec {
	n := p.N()
	v := bits.NewVec(2 * n)
	for i := 0; i < n; i++ {
		v.Set(i, p.XBits.Get(i))
		v.Set(n+i, p.ZBits.Get(i))
	}
	return v
}

// New validates and constructs a stabilizer code.
func New(name string, gens, logX, logZ []pauli.Pauli) (*Code, error) {
	if len(gens) == 0 {
		return nil, fmt.Errorf("code %s: no generators", name)
	}
	n := gens[0].N()
	k := n - len(gens)
	if len(logX) != k || len(logZ) != k {
		return nil, fmt.Errorf("code %s: need %d logical X and Z operators, got %d/%d",
			name, k, len(logX), len(logZ))
	}
	for i, g := range gens {
		if g.N() != n {
			return nil, fmt.Errorf("code %s: generator %d acts on %d qubits, want %d", name, i, g.N(), n)
		}
		for j := i + 1; j < len(gens); j++ {
			if !g.Commutes(gens[j]) {
				return nil, fmt.Errorf("code %s: generators %d and %d anticommute", name, i, j)
			}
		}
	}
	// Independence: the symplectic rows must have full rank.
	m := bits.NewMatrix(len(gens), 2*n)
	for i, g := range gens {
		m.SetRow(i, symplectic(g))
	}
	if m.Rank() != len(gens) {
		return nil, fmt.Errorf("code %s: generators are dependent", name)
	}
	for i := 0; i < k; i++ {
		for j, g := range gens {
			if !logX[i].Commutes(g) || !logZ[i].Commutes(g) {
				return nil, fmt.Errorf("code %s: logical %d anticommutes with generator %d", name, i, j)
			}
		}
		for j := 0; j < k; j++ {
			wantAnti := i == j
			if logX[i].Commutes(logZ[j]) == wantAnti {
				return nil, fmt.Errorf("code %s: X̂%d/Ẑ%d commutation violates Eq. (29)", name, i, j)
			}
			if i < j && (!logX[i].Commutes(logX[j]) || !logZ[i].Commutes(logZ[j])) {
				return nil, fmt.Errorf("code %s: logical operators %d,%d of same type anticommute", name, i, j)
			}
		}
	}
	return &Code{Name: name, N: n, K: k, Generators: gens, LogicalX: logX, LogicalZ: logZ}, nil
}

// MustNew is New that panics on error, for known-good code tables.
func MustNew(name string, gens, logX, logZ []pauli.Pauli) *Code {
	c, err := New(name, gens, logX, logZ)
	if err != nil {
		panic(err)
	}
	return c
}

// Syndrome returns the error syndrome of a Pauli error: bit i is set when
// the error anticommutes with generator i (§3.6: "every error changes the
// eigenvalues of some of the generators").
func (c *Code) Syndrome(err pauli.Pauli) bits.Vec {
	s := bits.NewVec(len(c.Generators))
	for i, g := range c.Generators {
		if !err.Commutes(g) {
			s.Set(i, true)
		}
	}
	return s
}

// LogicalClass classifies an undetectable error (trivial syndrome):
// xflips bit i is set when p acts as a logical X on encoded qubit i
// (it anticommutes with Ẑᵢ), zflips likewise against X̂ᵢ. A stabilizer
// element returns all-zero vectors.
func (c *Code) LogicalClass(p pauli.Pauli) (xflips, zflips bits.Vec) {
	xflips = bits.NewVec(c.K)
	zflips = bits.NewVec(c.K)
	for i := 0; i < c.K; i++ {
		if !p.Commutes(c.LogicalZ[i]) {
			xflips.Set(i, true)
		}
		if !p.Commutes(c.LogicalX[i]) {
			zflips.Set(i, true)
		}
	}
	return xflips, zflips
}

// IsLogicalError reports whether p has trivial syndrome but acts
// nontrivially on the encoded qubits.
func (c *Code) IsLogicalError(p pauli.Pauli) bool {
	if !c.Syndrome(p).Zero() {
		return false
	}
	x, z := c.LogicalClass(p)
	return !x.Zero() || !z.Zero()
}

// MinDistance searches for the minimum weight of a logical operator, up
// to maxWeight; it returns 0 if none was found within the bound.
// Exponential search — use only on small codes.
func (c *Code) MinDistance(maxWeight int) int {
	for w := 1; w <= maxWeight; w++ {
		if c.hasLogicalOfWeight(w) {
			return w
		}
	}
	return 0
}

func (c *Code) hasLogicalOfWeight(w int) bool {
	// Enumerate supports of size w and Pauli labels on them.
	found := false
	var rec func(p pauli.Pauli, start, left int)
	rec = func(p pauli.Pauli, start, left int) {
		if found {
			return
		}
		if left == 0 {
			if c.IsLogicalError(p) {
				found = true
			}
			return
		}
		for i := start; i <= c.N-left; i++ {
			for _, s := range []pauli.Single{pauli.X, pauli.Y, pauli.Z} {
				p.SetAt(i, s)
				rec(p, i+1, left-1)
				p.SetAt(i, pauli.I)
				if found {
					return
				}
			}
		}
	}
	rec(pauli.NewIdentity(c.N), 0, w)
	return found
}
