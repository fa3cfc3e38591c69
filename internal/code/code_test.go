package code

import (
	"math/rand/v2"
	"testing"

	"ftqc/internal/bits"
	"ftqc/internal/pauli"
	"ftqc/internal/tableau"
)

func TestSteaneParameters(t *testing.T) {
	c := Steane()
	if c.N != 7 || c.K != 1 {
		t.Fatalf("got [[%d,%d]]", c.N, c.K)
	}
	if len(c.Generators) != 6 {
		t.Fatalf("generator count %d", len(c.Generators))
	}
	if d := c.MinDistance(3); d != 3 {
		t.Fatalf("distance: got %d, want 3", d)
	}
}

func TestSteaneGeneratorsMatchEq18(t *testing.T) {
	// The generators must span the same group as Preskill Eq. (18).
	want := []pauli.Pauli{
		pauli.MustFromString("IIIZZZZ"),
		pauli.MustFromString("IZZIIZZ"),
		pauli.MustFromString("ZIZIZIZ"),
		pauli.MustFromString("IIIXXXX"),
		pauli.MustFromString("IXXIIXX"),
		pauli.MustFromString("XIXIXIX"),
	}
	c := Steane()
	for _, w := range want {
		if !c.IsStabilizerElement(w) {
			t.Fatalf("Eq. (18) generator %v not in stabilizer group", w)
		}
	}
}

func TestSteaneCorrectsAllSingleErrors(t *testing.T) {
	c := Steane()
	dec := NewDecoder(c.Code, 1)
	for q := 0; q < 7; q++ {
		for _, s := range []pauli.Single{pauli.X, pauli.Y, pauli.Z} {
			err := pauli.SingleQubit(7, q, s)
			if _, ok := dec.DecodeError(err); !ok {
				t.Fatalf("failed to correct %v on qubit %d", s, q)
			}
		}
	}
}

func TestSteaneDoubleBitFlipIsLogicalX(t *testing.T) {
	// Preskill Eq. (12): two bit flips in a block misdecode into a logical
	// bit flip. Check every pair.
	c := Steane()
	dec := NewDecoder(c.Code, 1)
	for a := 0; a < 7; a++ {
		for b := a + 1; b < 7; b++ {
			err := pauli.NewIdentity(7)
			err.SetAt(a, pauli.X)
			err.SetAt(b, pauli.X)
			residual, ok := dec.DecodeError(err)
			if ok {
				t.Fatalf("double flip (%d,%d) unexpectedly corrected", a, b)
			}
			x, z := c.LogicalClass(residual)
			if !x.Get(0) || z.Get(0) {
				t.Fatalf("double flip (%d,%d): residual %v is not a pure logical X", a, b, residual)
			}
		}
	}
}

func TestSteaneMixedPairRecoverable(t *testing.T) {
	// §2: one phase error plus one bit-flip error on different qubits is
	// still corrected, since the two sectors decode independently.
	c := Steane()
	dec := NewCSSDecoder(c)
	for a := 0; a < 7; a++ {
		for b := 0; b < 7; b++ {
			if a == b {
				continue
			}
			err := pauli.NewIdentity(7)
			err.SetAt(a, pauli.X)
			err.SetAt(b, pauli.Z)
			if _, ok := dec.DecodeError(err); !ok {
				t.Fatalf("X@%d,Z@%d should be correctable", a, b)
			}
		}
	}
}

func TestFiveQubitCode(t *testing.T) {
	c := FiveQubit()
	if c.N != 5 || c.K != 1 {
		t.Fatalf("got [[%d,%d]]", c.N, c.K)
	}
	if d := c.MinDistance(3); d != 3 {
		t.Fatalf("distance: got %d want 3", d)
	}
	dec := NewDecoder(c, 1)
	if dec.Coverage() != 16 {
		t.Fatalf("five-qubit decoder must cover all 16 syndromes, got %d", dec.Coverage())
	}
	for q := 0; q < 5; q++ {
		for _, s := range []pauli.Single{pauli.X, pauli.Y, pauli.Z} {
			if _, ok := dec.DecodeError(pauli.SingleQubit(5, q, s)); !ok {
				t.Fatalf("five-qubit failed on %v@%d", s, q)
			}
		}
	}
}

func TestShor9(t *testing.T) {
	c := Shor9()
	if c.N != 9 || c.K != 1 {
		t.Fatalf("got [[%d,%d]]", c.N, c.K)
	}
	if d := c.MinDistance(3); d != 3 {
		t.Fatalf("distance: got %d want 3", d)
	}
	dec := NewDecoder(c.Code, 1)
	for q := 0; q < 9; q++ {
		for _, s := range []pauli.Single{pauli.X, pauli.Y, pauli.Z} {
			if _, ok := dec.DecodeError(pauli.SingleQubit(9, q, s)); !ok {
				t.Fatalf("Shor9 failed on %v@%d", s, q)
			}
		}
	}
}

func TestShorFamilyParameters(t *testing.T) {
	for _, tt := range []struct{ t, n, d int }{{1, 9, 3}, {2, 25, 5}} {
		c := ShorFamily(tt.t)
		if c.N != tt.n || c.K != 1 {
			t.Fatalf("t=%d: got [[%d,%d]]", tt.t, c.N, c.K)
		}
		if tt.n <= 9 {
			if d := c.MinDistance(tt.d); d != tt.d {
				t.Fatalf("t=%d: distance %d want %d", tt.t, d, tt.d)
			}
		}
	}
}

func TestShorFamilyCorrectsTErrors(t *testing.T) {
	// [[25,1,5]] must correct any 2 independent errors.
	c := ShorFamily(2)
	dec := NewDecoder(c.Code, 2)
	rng := rand.New(rand.NewPCG(51, 52))
	for trial := 0; trial < 200; trial++ {
		a, b := rng.IntN(25), rng.IntN(25)
		if a == b {
			continue
		}
		err := pauli.NewIdentity(25)
		err.SetAt(a, pauli.Single(1+rng.IntN(3)))
		err.SetAt(b, pauli.Single(1+rng.IntN(3)))
		if _, ok := dec.DecodeError(err); !ok {
			t.Fatalf("[[25,1,5]] failed on weight-2 error %v", err)
		}
	}
}

func TestPrepareZeroStabilizesCode(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 62))
	for _, c := range []*Code{Steane().Code, FiveQubit(), Shor9().Code} {
		tb := tableau.New(c.N, rng)
		c.PrepareZero(tb)
		for i, g := range c.Generators {
			out, det := tb.Clone().MeasurePauli(g)
			if !det || out {
				t.Fatalf("%s: generator %d not +1 after PrepareZero", c.Name, i)
			}
		}
		out, det := tb.Clone().MeasurePauli(c.LogicalZ[0])
		if !det || out {
			t.Fatalf("%s: logical Z not +1 after PrepareZero", c.Name)
		}
	}
}

func TestPreparePlus(t *testing.T) {
	rng := rand.New(rand.NewPCG(63, 64))
	c := Steane()
	tb := tableau.New(7, rng)
	c.PreparePlus(tb)
	out, det := tb.MeasurePauli(c.LogicalX[0])
	if !det || out {
		t.Fatal("logical X not +1 after PreparePlus")
	}
}

func TestLogicalOperationsOnTableau(t *testing.T) {
	// Apply logical X to |0̄⟩ and verify Ẑ reads −1 (it is now |1̄⟩).
	rng := rand.New(rand.NewPCG(65, 66))
	c := Steane()
	tb := tableau.New(7, rng)
	c.PrepareZero(tb)
	tb.ApplyPauli(c.LogicalX[0])
	out, det := tb.MeasurePauli(c.LogicalZ[0])
	if !det || !out {
		t.Fatal("logical X did not flip the encoded qubit")
	}
}

func TestSyndromeLinearInError(t *testing.T) {
	c := Steane()
	rng := rand.New(rand.NewPCG(67, 68))
	for trial := 0; trial < 100; trial++ {
		a := randomPauliN(rng, 7)
		b := randomPauliN(rng, 7)
		sa, sb := c.Syndrome(a), c.Syndrome(b)
		sum := c.Syndrome(a.Mul(b))
		sa.Xor(sb)
		if !sum.Equal(sa) {
			t.Fatal("syndrome not linear")
		}
	}
}

func randomPauliN(rng *rand.Rand, n int) pauli.Pauli {
	p := pauli.NewIdentity(n)
	for i := 0; i < n; i++ {
		p.SetAt(i, pauli.Single(rng.IntN(4)))
	}
	return p
}

func TestNewRejectsBadCodes(t *testing.T) {
	// Anticommuting generators.
	if _, err := New("bad", []pauli.Pauli{
		pauli.MustFromString("XI"),
		pauli.MustFromString("ZI"),
	}, nil, nil); err == nil {
		t.Fatal("expected rejection of anticommuting generators")
	}
	// Dependent generators.
	if _, err := New("bad", []pauli.Pauli{
		pauli.MustFromString("XX"),
		pauli.MustFromString("XX"),
	}, nil, nil); err == nil {
		t.Fatal("expected rejection of dependent generators")
	}
}

func TestDecoderCoverageSteane(t *testing.T) {
	dec := NewDecoder(Steane().Code, 3)
	if dec.Coverage() != 64 {
		t.Fatalf("weight-3 Steane decoder covers %d/64 syndromes", dec.Coverage())
	}
}

func TestStabilizerElementDetection(t *testing.T) {
	c := Steane()
	g := c.Generators[0].Mul(c.Generators[3])
	if !c.IsStabilizerElement(g) {
		t.Fatal("product of generators not recognized as stabilizer element")
	}
	if c.IsStabilizerElement(c.LogicalX[0]) {
		t.Fatal("logical X misidentified as stabilizer element")
	}
}

// IsStabilizerElement reports whether p (up to phase) lies in the
// stabilizer group.
func (c *Code) IsStabilizerElement(p pauli.Pauli) bool {
	m := bits.NewMatrix(len(c.Generators), 2*c.N)
	for i, g := range c.Generators {
		m.SetRow(i, symplectic(g))
	}
	return m.InSpan(symplectic(p))
}

// PrepareZero projects a tableau (of exactly N qubits) onto the encoded
// all-|0⟩ logical state with every stabilizer sign +1: it measures each
// generator and each logical Ẑ, then applies a single Pauli correction
// that flips exactly the generators and logical Ẑs that read −1.
func (c *Code) PrepareZero(tb *tableau.Tableau) {
	c.prepareEigenstate(tb, c.LogicalZ)
}

// PreparePlus is PrepareZero in the Hadamard-rotated logical basis: the
// logical qubits end in |+⟩ (the +1 eigenstate of X̂).
func (c *Code) PreparePlus(tb *tableau.Tableau) {
	c.prepareEigenstate(tb, c.LogicalX)
}

func (c *Code) prepareEigenstate(tb *tableau.Tableau, logicals []pauli.Pauli) {
	if tb.N() != c.N {
		panic("code: tableau size mismatch")
	}
	ops := make([]pauli.Pauli, 0, len(c.Generators)+len(logicals))
	ops = append(ops, c.Generators...)
	ops = append(ops, logicals...)
	want := bits.NewVec(len(ops))
	for i, op := range ops {
		out, _ := tb.MeasurePauli(op)
		want.Set(i, out) // need to flip the ops that measured -1
	}
	// Find a Pauli correction whose commutation pattern with ops matches
	// `want`: unknowns are the (x|z) bits of the correction; the
	// symplectic product with op i must equal want_i.
	m := bits.NewMatrix(len(ops), 2*c.N)
	for i, op := range ops {
		// symplectic product <c, op> = c_x·op_z + c_z·op_x; row i holds
		// (op_z | op_x) so that m·(c_x|c_z) gives the product.
		row := bits.NewVec(2 * c.N)
		for q := 0; q < c.N; q++ {
			row.Set(q, op.ZBits.Get(q))
			row.Set(c.N+q, op.XBits.Get(q))
		}
		m.SetRow(i, row)
	}
	sol, ok := m.Solve(want)
	if !ok {
		panic("code: no Pauli correction exists (operators dependent?)")
	}
	corr := pauli.NewIdentity(c.N)
	for q := 0; q < c.N; q++ {
		corr.XBits.Set(q, sol.Get(q))
		corr.ZBits.Set(q, sol.Get(c.N+q))
	}
	tb.ApplyPauli(corr)
}

// Shor9 returns Shor's [[9,1,3]] code: three blocks of three qubits with
// ZZ checks inside blocks and X⊗6 checks across adjacent blocks.
func Shor9() *CSS { return ShorFamily(1) }

// Coverage returns the number of distinct syndromes in the table; for a
// code with n−k generators, full coverage is 2^(n−k).
func (d *Decoder) Coverage() int { return len(d.table) }
