// Package group implements finite permutation groups: composition,
// conjugation, generated closures, conjugacy classes, commutator
// subgroups and solvability. It provides the algebraic substrate for the
// nonabelian Aharonov-Bohm computer of Preskill §7.3–§7.4, where magnetic
// fluxes are labeled by elements of a finite group (A₅ in the universal
// construction) and logic is performed by conjugation.
package group

import (
	"fmt"
	"sort"
	"strings"
)

// Perm is a permutation of {0, …, n−1}: p[i] is the image of i.
type Perm []int

// Identity returns the identity permutation on n points.
func Identity(n int) Perm {
	p := make(Perm, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// Cycle builds a permutation on n points from disjoint cycles written
// with 1-based labels, e.g. Cycle(5, []int{1,2,5}) = (125).
func Cycle(n int, cycles ...[]int) Perm {
	p := Identity(n)
	for _, c := range cycles {
		for i, from := range c {
			to := c[(i+1)%len(c)]
			p[from-1] = to - 1
		}
	}
	return p
}

// Mul returns the composition a∘b (apply b first, then a).
func (a Perm) Mul(b Perm) Perm {
	if len(a) != len(b) {
		panic("group: size mismatch")
	}
	out := make(Perm, len(a))
	for i := range out {
		out[i] = a[b[i]]
	}
	return out
}

// Inv returns the inverse permutation.
func (a Perm) Inv() Perm {
	out := make(Perm, len(a))
	for i, v := range a {
		out[v] = i
	}
	return out
}

// Conj returns g⁻¹·a·g — the flux metamorphosis of Preskill Eq. (40).
func (a Perm) Conj(g Perm) Perm { return g.Inv().Mul(a).Mul(g) }

// Commutator returns [a, b] = a⁻¹ b⁻¹ a b.
func Commutator(a, b Perm) Perm { return a.Inv().Mul(b.Inv()).Mul(a).Mul(b) }

// Equal reports whether two permutations are identical.
func (a Perm) Equal(b Perm) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// IsIdentity reports whether a is the identity.
func (a Perm) IsIdentity() bool {
	for i, v := range a {
		if v != i {
			return false
		}
	}
	return true
}

// Key returns a comparable map key.
func (a Perm) Key() string {
	var sb strings.Builder
	for _, v := range a {
		fmt.Fprintf(&sb, "%d,", v)
	}
	return sb.String()
}

// Order returns the multiplicative order of a.
func (a Perm) Order() int {
	p := a
	for k := 1; ; k++ {
		if p.IsIdentity() {
			return k
		}
		p = p.Mul(a)
	}
}

// String renders the permutation in cycle notation with 1-based labels.
func (a Perm) String() string {
	seen := make([]bool, len(a))
	var parts []string
	for i := range a {
		if seen[i] || a[i] == i {
			seen[i] = true
			continue
		}
		var cyc []string
		for j := i; !seen[j]; j = a[j] {
			seen[j] = true
			cyc = append(cyc, fmt.Sprint(j+1))
		}
		parts = append(parts, "("+strings.Join(cyc, " ")+")")
	}
	if len(parts) == 0 {
		return "e"
	}
	return strings.Join(parts, "")
}

// Group is a finite permutation group with a full element table.
type Group struct {
	Name     string
	Degree   int
	Elements []Perm
	index    map[string]int
}

// Generate computes the closure of the generators by breadth-first
// multiplication.
func Generate(name string, degree int, gens ...Perm) *Group {
	g := &Group{Name: name, Degree: degree, index: make(map[string]int)}
	id := Identity(degree)
	g.add(id)
	frontier := []Perm{id}
	for len(frontier) > 0 {
		var next []Perm
		for _, e := range frontier {
			for _, gen := range gens {
				p := e.Mul(gen)
				if g.add(p) {
					next = append(next, p)
				}
			}
		}
		frontier = next
	}
	// Canonical order for reproducibility.
	sort.Slice(g.Elements, func(i, j int) bool {
		return g.Elements[i].Key() < g.Elements[j].Key()
	})
	for i, e := range g.Elements {
		g.index[e.Key()] = i
	}
	return g
}

func (g *Group) add(p Perm) bool {
	k := p.Key()
	if _, ok := g.index[k]; ok {
		return false
	}
	g.index[k] = len(g.Elements)
	g.Elements = append(g.Elements, p)
	return true
}

// Order returns |G|.
func (g *Group) Order() int { return len(g.Elements) }

// DerivedSubgroup returns the commutator subgroup [G, G].
func (g *Group) DerivedSubgroup() *Group {
	var gens []Perm
	seen := map[string]bool{}
	for _, a := range g.Elements {
		for _, b := range g.Elements {
			c := Commutator(a, b)
			if !seen[c.Key()] {
				seen[c.Key()] = true
				gens = append(gens, c)
			}
		}
	}
	return Generate(g.Name+"'", g.Degree, gens...)
}

// IsPerfect reports whether G equals its own commutator subgroup.
func (g *Group) IsPerfect() bool {
	return g.DerivedSubgroup().Order() == g.Order()
}

// IsSolvable reports whether the derived series terminates at the
// trivial group. Preskill §7.4 conjectures nonsolvability is what makes
// conjugation-based classical computation universal; A₅ is the smallest
// nonsolvable group.
func (g *Group) IsSolvable() bool {
	cur := g
	for {
		next := cur.DerivedSubgroup()
		if next.Order() == 1 {
			return true
		}
		if next.Order() == cur.Order() {
			return false
		}
		cur = next
	}
}

// A returns the alternating group on n points.
func A(n int) *Group {
	if n < 3 {
		return Generate(fmt.Sprintf("A%d", n), n)
	}
	var gens []Perm
	for i := 3; i <= n; i++ {
		gens = append(gens, Cycle(n, []int{1, 2, i}))
	}
	return Generate(fmt.Sprintf("A%d", n), n, gens...)
}
