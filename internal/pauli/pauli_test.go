package pauli

import (
	"math/rand/v2"
	"testing"
)

func randomPauli(rng *rand.Rand, n int) Pauli {
	p := NewIdentity(n)
	for i := 0; i < n; i++ {
		p.SetAt(i, Single(rng.IntN(4)))
	}
	p.Phase = uint8(rng.IntN(4))
	return p
}

func TestParseRoundTrip(t *testing.T) {
	for _, s := range []string{"IXZY", "XXXX", "-ZZ", "iX", "-iYIZ", "I"} {
		p := MustFromString(s)
		want := s
		if want[0] != '-' && want[0] != 'i' && want[0] != '+' {
			// canonical form has no '+' prefix
		}
		if got := p.String(); got != want {
			t.Errorf("round trip %q: got %q", s, got)
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := FromString("XQ"); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestSingleQubitAlgebra(t *testing.T) {
	// X·Z = -Z·X, X² = Z² = Y² = I, X·Z = -iY.
	x := MustFromString("X")
	z := MustFromString("Z")
	y := MustFromString("Y")
	xz := x.Mul(z)
	zx := z.Mul(x)
	if xz.EqualUpToPhase(zx) && (xz.Phase-zx.Phase)%4 != 2 {
		t.Fatalf("XZ and ZX should differ by -1: phases %d %d", xz.Phase, zx.Phase)
	}
	if !x.Mul(x).IsIdentity() || x.Mul(x).Phase != 0 {
		t.Fatal("X^2 != I")
	}
	if !y.Mul(y).IsIdentity() || y.Mul(y).Phase != 0 {
		t.Fatalf("Y^2 != I (phase %d)", y.Mul(y).Phase)
	}
	// X·Z = -i·Y: phase of XZ must be phase of Y minus 1 mod 4.
	if !xz.EqualUpToPhase(y) {
		t.Fatal("XZ not proportional to Y")
	}
	if (xz.Phase+1)%4 != y.Phase {
		t.Fatalf("XZ = i^%d·(unsigned Y), want i^%d = -i", xz.Phase, (y.Phase+3)%4)
	}
}

func TestCommutesMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.IntN(10)
		p, q := randomPauli(rng, n), randomPauli(rng, n)
		pq, qp := p.Mul(q), q.Mul(p)
		if !pq.EqualUpToPhase(qp) {
			t.Fatal("products differ beyond phase")
		}
		sameSign := pq.Phase == qp.Phase
		if p.Commutes(q) != sameSign {
			t.Fatalf("Commutes=%v but phases %d vs %d for %v, %v",
				p.Commutes(q), pq.Phase, qp.Phase, p, q)
		}
	}
}

func TestMulAssociative(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.IntN(8)
		a, b, c := randomPauli(rng, n), randomPauli(rng, n), randomPauli(rng, n)
		lhs := a.Mul(b).Mul(c)
		rhs := a.Mul(b.Mul(c))
		if !lhs.Equal(rhs) {
			t.Fatalf("associativity failed: (ab)c=%v a(bc)=%v", lhs, rhs)
		}
	}
}

func TestSelfInverseUpToPhase(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 16))
	for trial := 0; trial < 200; trial++ {
		p := randomPauli(rng, 1+rng.IntN(8))
		p.Phase = 0
		sq := p.Mul(p)
		if !sq.IsIdentity() {
			t.Fatal("p^2 not identity")
		}
		// i^phase X^x Z^z squared is ±1; sign is (-1)^(x·z) (one -1 per Y).
		if sq.Phase%2 != 0 {
			t.Fatalf("p^2 has imaginary phase %d", sq.Phase)
		}
	}
}

func TestWeight(t *testing.T) {
	p := MustFromString("IXZYI")
	if p.Weight() != 3 {
		t.Fatalf("weight: got %d want 3", p.Weight())
	}
	if p.N() != 5 {
		t.Fatalf("N: got %d want 5", p.N())
	}
	if p.At(3) != Y || p.At(0) != I || p.At(1) != X || p.At(2) != Z {
		t.Fatal("At() wrong")
	}
}

func TestSingleQubitConstructor(t *testing.T) {
	p := SingleQubit(4, 2, Y)
	if got := p.String(); got != "IIYI" {
		t.Fatalf("got %q", got)
	}
	q := SingleQubit(3, 0, X)
	if got := q.String(); got != "XII" {
		t.Fatalf("got %q", got)
	}
}

func TestSteaneGeneratorsCommute(t *testing.T) {
	// The six stabilizer generators from Preskill Eq. (18) must pairwise
	// commute.
	gens := []Pauli{
		MustFromString("IIIZZZZ"),
		MustFromString("IZZIIZZ"),
		MustFromString("ZIZIZIZ"),
		MustFromString("IIIXXXX"),
		MustFromString("IXXIIXX"),
		MustFromString("XIXIXIX"),
	}
	for i := range gens {
		for j := range gens {
			if !gens[i].Commutes(gens[j]) {
				t.Fatalf("generators %d and %d anticommute", i, j)
			}
		}
	}
}

// IsIdentity reports whether p is the identity up to phase.
func (p Pauli) IsIdentity() bool { return p.XBits.Zero() && p.ZBits.Zero() }
