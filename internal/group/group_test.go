package group

import (
	"fmt"
	"testing"
)

func TestCycleNotation(t *testing.T) {
	p := Cycle(5, []int{1, 2, 5})
	if p.String() != "(1 2 5)" {
		t.Fatalf("got %q", p.String())
	}
	q := Cycle(5, []int{1, 4}, []int{3, 5})
	if q.String() != "(1 4)(3 5)" {
		t.Fatalf("got %q", q.String())
	}
	if !Identity(5).IsIdentity() || Identity(5).String() != "e" {
		t.Fatal("identity broken")
	}
}

func TestMulConvention(t *testing.T) {
	// Mul(a,b) applies b first: (12)·(23) maps 3→(23)→2→(12)→1.
	a := Cycle(3, []int{1, 2})
	b := Cycle(3, []int{2, 3})
	ab := a.Mul(b)
	if ab[2] != 0 {
		t.Fatalf("composition convention wrong: 3 ↦ %d", ab[2]+1)
	}
}

func TestInverse(t *testing.T) {
	p := Cycle(5, []int{1, 3, 4, 2})
	if !p.Mul(p.Inv()).IsIdentity() || !p.Inv().Mul(p).IsIdentity() {
		t.Fatal("inverse broken")
	}
}

func TestGroupAxiomsViaClosure(t *testing.T) {
	g := A(5)
	// Closure and inverse presence for a sample of products.
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			p := g.Elements[i*3%60].Mul(g.Elements[j*7%60])
			if !g.Contains(p) {
				t.Fatal("closure violated")
			}
		}
	}
	for _, e := range g.Elements[:20] {
		if !g.Contains(e.Inv()) {
			t.Fatal("inverse not in group")
		}
	}
}

func TestGroupOrders(t *testing.T) {
	for _, tt := range []struct {
		g    *Group
		want int
	}{
		{S(3), 6}, {S(4), 24}, {S(5), 120},
		{A(3), 3}, {A(4), 12}, {A(5), 60},
	} {
		if got := tt.g.Order(); got != tt.want {
			t.Fatalf("%s order %d, want %d", tt.g.Name, got, tt.want)
		}
	}
}

func TestA5AllEven(t *testing.T) {
	for _, e := range A(5).Elements {
		if e.Parity() != 1 {
			t.Fatalf("odd permutation %v in A5", e)
		}
	}
}

func TestSolvability(t *testing.T) {
	// §7.4: A₅ is the smallest nonsolvable group; everything below is
	// solvable.
	if !S(3).IsSolvable() || !S(4).IsSolvable() || !A(4).IsSolvable() {
		t.Fatal("S3, S4, A4 must be solvable")
	}
	if A(5).IsSolvable() {
		t.Fatal("A5 must not be solvable")
	}
	if S(5).IsSolvable() {
		t.Fatal("S5 must not be solvable")
	}
}

func TestA5Perfect(t *testing.T) {
	if !A(5).IsPerfect() {
		t.Fatal("A5 must equal its commutator subgroup")
	}
	if S(5).IsPerfect() {
		t.Fatal("S5 is not perfect (derived subgroup is A5)")
	}
	if got := S(5).DerivedSubgroup().Order(); got != 60 {
		t.Fatalf("[S5,S5] order %d, want 60", got)
	}
}

func TestConjugacyClassOfFiveCycle(t *testing.T) {
	// In A5 the 5-cycles split into two classes of 12.
	g := A(5)
	c := g.ConjugacyClass(Cycle(5, []int{1, 2, 3, 4, 5}))
	if len(c) != 12 {
		t.Fatalf("5-cycle class size %d, want 12", len(c))
	}
	// Three-cycles form a single class of 20.
	c3 := g.ConjugacyClass(Cycle(5, []int{1, 2, 5}))
	if len(c3) != 20 {
		t.Fatalf("3-cycle class size %d, want 20", len(c3))
	}
}

func TestConjExchangesComputationalFluxes(t *testing.T) {
	// Eq. 45 and the Fig. 21 NOT conjugator: v⁻¹(125)v = (234) with
	// v = (14)(35).
	u0 := Cycle(5, []int{1, 2, 5})
	u1 := Cycle(5, []int{2, 3, 4})
	v := Cycle(5, []int{1, 4}, []int{3, 5})
	if !u0.Conj(v).Equal(u1) {
		t.Fatalf("v⁻¹u0v = %v, want %v", u0.Conj(v), u1)
	}
	if !u1.Conj(v).Equal(u0) {
		t.Fatal("v must also map u1 back to u0 (involution)")
	}
}

func TestOrderOfElements(t *testing.T) {
	if Cycle(5, []int{1, 2, 3, 4, 5}).Order() != 5 {
		t.Fatal("5-cycle order")
	}
	if Cycle(5, []int{1, 4}, []int{3, 5}).Order() != 2 {
		t.Fatal("double transposition order")
	}
}

func TestCommutatorIdentity(t *testing.T) {
	// [a,b] = e iff a and b commute.
	a := Cycle(5, []int{1, 2, 3})
	b := Cycle(5, []int{4, 5, 1})
	if Commutator(a, a).IsIdentity() != true {
		t.Fatal("[a,a] must be e")
	}
	if Commutator(a, b).IsIdentity() {
		t.Fatal("overlapping cycles should not commute")
	}
}

// Parity returns +1 for even permutations, −1 for odd.
func (a Perm) Parity() int {
	seen := make([]bool, len(a))
	sign := 1
	for i := range a {
		if seen[i] {
			continue
		}
		length := 0
		for j := i; !seen[j]; j = a[j] {
			seen[j] = true
			length++
		}
		if length%2 == 0 {
			sign = -sign
		}
	}
	return sign
}

// Contains reports membership.
func (g *Group) Contains(p Perm) bool {
	_, ok := g.index[p.Key()]
	return ok
}

// ConjugacyClass returns the class of p in g.
func (g *Group) ConjugacyClass(p Perm) []Perm {
	seen := map[string]bool{}
	var out []Perm
	for _, e := range g.Elements {
		c := p.Conj(e)
		if !seen[c.Key()] {
			seen[c.Key()] = true
			out = append(out, c)
		}
	}
	return out
}

// S returns the symmetric group on n points.
func S(n int) *Group {
	if n < 2 {
		return Generate(fmt.Sprintf("S%d", n), n)
	}
	transp := Cycle(n, []int{1, 2})
	var cyc []int
	for i := 1; i <= n; i++ {
		cyc = append(cyc, i)
	}
	return Generate(fmt.Sprintf("S%d", n), n, transp, Cycle(n, cyc))
}
