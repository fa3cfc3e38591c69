// Package tableau implements a hand-rolled stabilizer-circuit simulator in
// the style of Aaronson–Gottesman (CHP). The state of n qubits is tracked
// as a tableau of n destabilizer and n stabilizer generators, supporting
// the Clifford gates used throughout Preskill's fault-tolerance circuits
// (H, S, CNOT, CZ, Paulis) plus single-qubit and general Pauli
// measurements. Simulation cost is polynomial in n, which is what makes
// syndrome-extraction and threshold experiments tractable.
package tableau

import (
	"math/rand/v2"

	"ftqc/internal/bits"
	"ftqc/internal/pauli"
)

// Tableau is the stabilizer state of n qubits. Rows 0..n-1 are
// destabilizers, rows n..2n-1 are stabilizers; row 2n is scratch.
type Tableau struct {
	n   int
	x   []bits.Vec // x[i] is the X-bit row i
	z   []bits.Vec
	r   bits.Vec // sign bits, packed: bit i set means row i carries a -1
	rng *rand.Rand
}

// New returns a tableau initialized to |0…0⟩ with the given random source
// (used for non-deterministic measurement outcomes). A nil rng defaults to
// a fixed-seed source, keeping results reproducible.
func New(n int, rng *rand.Rand) *Tableau {
	if rng == nil {
		rng = rand.New(rand.NewPCG(0xfeed, 0xbeef))
	}
	t := &Tableau{
		n:   n,
		x:   make([]bits.Vec, 2*n+1),
		z:   make([]bits.Vec, 2*n+1),
		r:   bits.NewVec(2*n + 1),
		rng: rng,
	}
	for i := range t.x {
		t.x[i] = bits.NewVec(n)
		t.z[i] = bits.NewVec(n)
	}
	for i := 0; i < n; i++ {
		t.x[i].Set(i, true)   // destabilizer i = X_i
		t.z[n+i].Set(i, true) // stabilizer i = Z_i
	}
	return t
}

// N returns the number of qubits.
func (t *Tableau) N() int { return t.n }

// Clone returns an independent copy sharing the same random source.
func (t *Tableau) Clone() *Tableau {
	c := &Tableau{n: t.n, x: make([]bits.Vec, len(t.x)), z: make([]bits.Vec, len(t.z)), r: t.r.Clone(), rng: t.rng}
	for i := range t.x {
		c.x[i] = t.x[i].Clone()
		c.z[i] = t.z[i].Clone()
	}
	return c
}

// H applies a Hadamard gate to qubit a.
func (t *Tableau) H(a int) {
	for i := 0; i < 2*t.n; i++ {
		xa, za := t.x[i].Get(a), t.z[i].Get(a)
		if xa && za {
			t.r.Flip(i)
		}
		t.x[i].Set(a, za)
		t.z[i].Set(a, xa)
	}
}

// S applies the phase gate diag(1, i) to qubit a.
func (t *Tableau) S(a int) {
	for i := 0; i < 2*t.n; i++ {
		xa, za := t.x[i].Get(a), t.z[i].Get(a)
		if xa && za {
			t.r.Flip(i)
		}
		t.z[i].Set(a, za != xa)
	}
}

// Sdg applies the inverse phase gate diag(1, -i) to qubit a.
func (t *Tableau) Sdg(a int) { t.S(a); t.S(a); t.S(a) }

// CNOT applies a controlled-NOT (the paper's XOR gate) with control a and
// target b.
func (t *Tableau) CNOT(a, b int) {
	if a == b {
		panic("tableau: CNOT with equal control and target")
	}
	for i := 0; i < 2*t.n; i++ {
		xa, za := t.x[i].Get(a), t.z[i].Get(a)
		xb, zb := t.x[i].Get(b), t.z[i].Get(b)
		if xa && zb && (xb == za) {
			t.r.Flip(i)
		}
		t.x[i].Set(b, xb != xa)
		t.z[i].Set(a, za != zb)
	}
}

// CZ applies a controlled-Z between qubits a and b.
func (t *Tableau) CZ(a, b int) { t.H(b); t.CNOT(a, b); t.H(b) }

// X applies a bit flip to qubit a.
func (t *Tableau) X(a int) {
	for i := 0; i < 2*t.n; i++ {
		if t.z[i].Get(a) {
			t.r.Flip(i)
		}
	}
}

// Z applies a phase flip to qubit a.
func (t *Tableau) Z(a int) {
	for i := 0; i < 2*t.n; i++ {
		if t.x[i].Get(a) {
			t.r.Flip(i)
		}
	}
}

// Y applies Y = iXZ to qubit a.
func (t *Tableau) Y(a int) { t.Z(a); t.X(a) }

// ApplyPauli applies the unitary given by a Pauli operator (its overall
// phase is a global phase and is ignored).
func (t *Tableau) ApplyPauli(p pauli.Pauli) {
	if p.N() != t.n {
		panic("tableau: Pauli size mismatch")
	}
	for i := 0; i < 2*t.n; i++ {
		// The row sign flips iff the row anticommutes with p.
		if t.x[i].Dot(p.ZBits) != p.XBits.Dot(t.z[i]) {
			t.r.Flip(i)
		}
	}
}

// g returns the exponent of i contributed when multiplying the one-qubit
// Paulis (x1,z1)·(x2,z2), as in Aaronson–Gottesman.
func g(x1, z1, x2, z2 bool) int {
	switch {
	case !x1 && !z1:
		return 0
	case x1 && z1: // Y
		return b2i(z2) - b2i(x2)
	case x1 && !z1: // X
		return b2i(z2) * (2*b2i(x2) - 1)
	default: // Z
		return b2i(x2) * (1 - 2*b2i(z2))
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// rowsum sets row h to row h · row i, maintaining the sign bit.
func (t *Tableau) rowsum(h, i int) {
	phase := 2*b2i(t.r.Get(h)) + 2*b2i(t.r.Get(i))
	for j := 0; j < t.n; j++ {
		phase += g(t.x[i].Get(j), t.z[i].Get(j), t.x[h].Get(j), t.z[h].Get(j))
	}
	phase = ((phase % 4) + 4) % 4
	// Odd phases can only arise when h is a destabilizer row (whose sign
	// is irrelevant to the algorithm); stabilizer rows always commute, so
	// their sums stay real.
	t.r.Set(h, phase == 2 || phase == 3)
	t.x[h].Xor(t.x[i])
	t.z[h].Xor(t.z[i])
}

// MeasureZ measures qubit a in the computational basis and returns the
// outcome together with whether the outcome was deterministic.
func (t *Tableau) MeasureZ(a int) (outcome, deterministic bool) {
	n := t.n
	p := -1
	for i := n; i < 2*n; i++ {
		if t.x[i].Get(a) {
			p = i
			break
		}
	}
	if p >= 0 {
		// Random outcome.
		for i := 0; i < 2*n; i++ {
			if i != p && t.x[i].Get(a) {
				t.rowsum(i, p)
			}
		}
		// Destabilizer p-n becomes the old stabilizer row p.
		t.x[p-n] = t.x[p].Clone()
		t.z[p-n] = t.z[p].Clone()
		t.r.Set(p-n, t.r.Get(p))
		// New stabilizer: ±Z_a.
		out := t.rng.IntN(2) == 1
		t.x[p] = bits.NewVec(n)
		t.z[p] = bits.NewVec(n)
		t.z[p].Set(a, true)
		t.r.Set(p, out)
		return out, false
	}
	// Deterministic outcome: accumulate the relevant stabilizers in scratch.
	t.x[2*n] = bits.NewVec(n)
	t.z[2*n] = bits.NewVec(n)
	t.r.Set(2*n, false)
	for i := 0; i < n; i++ {
		if t.x[i].Get(a) {
			t.rowsum(2*n, i+n)
		}
	}
	return t.r.Get(2 * n), true
}

// MeasureX measures qubit a in the X basis.
func (t *Tableau) MeasureX(a int) (outcome, deterministic bool) {
	t.H(a)
	out, det := t.MeasureZ(a)
	t.H(a)
	return out, det
}

// Reset measures qubit a and flips it to |0⟩ if needed.
func (t *Tableau) Reset(a int) {
	if out, _ := t.MeasureZ(a); out {
		t.X(a)
	}
}

// MeasurePauli measures the (Hermitian) Pauli observable p, returning the
// outcome (true = -1 eigenvalue) and whether it was deterministic.
// p.Phase must be 0 or 2 (a ±1 Hermitian operator with real sign).
func (t *Tableau) MeasurePauli(p pauli.Pauli) (outcome, deterministic bool) {
	if p.N() != t.n {
		panic("tableau: Pauli size mismatch")
	}
	// Find an anticommuting stabilizer row.
	anti := -1
	for i := t.n; i < 2*t.n; i++ {
		if t.x[i].Dot(p.ZBits) != p.XBits.Dot(t.z[i]) {
			anti = i
			break
		}
	}
	if anti < 0 {
		return t.deterministicSign(p), true
	}
	// Random outcome: replace row anti with ±p, fix all other rows that
	// anticommute with p by multiplying in the old row.
	for i := 0; i < 2*t.n; i++ {
		if i == anti {
			continue
		}
		if t.x[i].Dot(p.ZBits) != p.XBits.Dot(t.z[i]) {
			t.rowsum(i, anti)
		}
	}
	t.x[anti-t.n] = t.x[anti].Clone()
	t.z[anti-t.n] = t.z[anti].Clone()
	t.r.Set(anti-t.n, t.r.Get(anti))
	out := t.rng.IntN(2) == 1
	t.x[anti] = p.XBits.Clone()
	t.z[anti] = p.ZBits.Clone()
	t.r.Set(anti, out != hermitianSign(p))
	return out, false
}

// hermitianSign interprets p as ± (Hermitian Pauli product) and returns
// true for the minus sign. It panics when p is not Hermitian (phase has an
// unpaired factor of i).
func hermitianSign(p pauli.Pauli) bool {
	y := p.XBits.Clone()
	y.And(p.ZBits)
	rel := ((int(p.Phase)-y.Weight())%4 + 4) % 4
	if rel%2 != 0 {
		panic("tableau: cannot measure non-Hermitian Pauli")
	}
	return rel == 2
}

// deterministicSign returns the measurement outcome for a Pauli that
// commutes with every stabilizer: it must equal ± a product of stabilizer
// rows; the sign of that product relative to p is the outcome.
func (t *Tableau) deterministicSign(p pauli.Pauli) bool {
	n := t.n
	t.x[2*n] = bits.NewVec(n)
	t.z[2*n] = bits.NewVec(n)
	t.r.Set(2*n, false)
	// p anticommutes with destabilizer i exactly when stabilizer i appears
	// in its stabilizer decomposition.
	for i := 0; i < n; i++ {
		if t.x[i].Dot(p.ZBits) != p.XBits.Dot(t.z[i]) {
			t.rowsum(2*n, i+n)
		}
	}
	if !t.x[2*n].Equal(p.XBits) || !t.z[2*n].Equal(p.ZBits) {
		panic("tableau: observable outside the stabilizer group closure")
	}
	// The scratch row and p now share (x, z); both are Hermitian, so they
	// differ at most by a real sign, and the outcome is -1 exactly when
	// those signs disagree.
	return t.r.Get(2*n) != hermitianSign(p)
}

// StabilizerRow returns stabilizer generator i (0 ≤ i < n) as a Pauli with
// phase 0 (+1) or 2 (-1).
func (t *Tableau) StabilizerRow(i int) pauli.Pauli {
	row := pauli.Pauli{XBits: t.x[t.n+i].Clone(), ZBits: t.z[t.n+i].Clone()}
	// The tableau row is (-1)^r times a Hermitian Pauli product; in the
	// i^phase·X^x·Z^z representation each Y contributes a factor of i.
	y := row.XBits.Clone()
	y.And(row.ZBits)
	row.Phase = uint8((y.Weight() + 2*b2i(t.r.Get(t.n+i))) % 4)
	return row
}

// CanonicalStabilizers returns the stabilizer group in a canonical
// row-reduced form, usable to compare two states for equality.
func (t *Tableau) CanonicalStabilizers() []string {
	rows := make([]pauli.Pauli, t.n)
	for i := range rows {
		rows[i] = t.StabilizerRow(i)
	}
	// Gaussian elimination over the (x|z) bits, multiplying Paulis to keep
	// signs consistent.
	col := func(p pauli.Pauli, j int) bool {
		if j < t.n {
			return p.XBits.Get(j)
		}
		return p.ZBits.Get(j - t.n)
	}
	r := 0
	for c := 0; c < 2*t.n && r < t.n; c++ {
		pvt := -1
		for i := r; i < t.n; i++ {
			if col(rows[i], c) {
				pvt = i
				break
			}
		}
		if pvt < 0 {
			continue
		}
		rows[r], rows[pvt] = rows[pvt], rows[r]
		for i := 0; i < t.n; i++ {
			if i != r && col(rows[i], c) {
				rows[i] = rows[i].Mul(rows[r])
			}
		}
		r++
	}
	out := make([]string, t.n)
	for i, p := range rows {
		out[i] = p.String()
	}
	return out
}

// SameState reports whether two tableaus describe the same quantum state.
func SameState(a, b *Tableau) bool {
	if a.n != b.n {
		return false
	}
	ca, cb := a.CanonicalStabilizers(), b.CanonicalStabilizers()
	for i := range ca {
		if ca[i] != cb[i] {
			return false
		}
	}
	return true
}
