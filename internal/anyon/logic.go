package anyon

import (
	"fmt"
	"math"
	"math/rand/v2"

	"ftqc/internal/group"
)

// Computational encoding over G = A₅ (Preskill §7.4, Eq. 45): bit 0 is
// the flux pair |u₀,u₀⁻¹⟩ with u₀ = (125), bit 1 is u₁ = (234) — two
// three-cycles with one object in common.

// A5Encoding carries the calibrated elements of the §7.4 construction.
type A5Encoding struct {
	G      *group.Group
	U0, U1 group.Perm // computational fluxes (Eq. 45)
	V      group.Perm // NOT conjugator: v⁻¹u₀v = u₁, v = (14)(35)
}

// NewA5Encoding builds the standard encoding.
func NewA5Encoding() A5Encoding {
	g := group.A(5)
	enc := A5Encoding{
		G:  g,
		U0: group.Cycle(5, []int{1, 2, 5}),
		U1: group.Cycle(5, []int{2, 3, 4}),
		V:  group.Cycle(5, []int{1, 4}, []int{3, 5}),
	}
	if !enc.U0.Conj(enc.V).Equal(enc.U1) {
		panic("anyon: v=(14)(35) does not exchange the computational fluxes")
	}
	return enc
}

// NOT applies the Fig. 21 NOT gate to register i: pulling the pair
// through a calibrated |v, v⁻¹⟩ pair exchanges u₀ ↔ u₁.
func (e A5Encoding) NOT(r *Register, i int) {
	r.PullThroughFlux(i, e.V)
}

// Bit reads a flux-basis measurement outcome as a classical bit.
func (e A5Encoding) Bit(p group.Perm) (int, error) {
	switch {
	case p.Equal(e.U0):
		return 0, nil
	case p.Equal(e.U1):
		return 1, nil
	}
	return -1, fmt.Errorf("anyon: flux %v is outside the computational basis", p)
}

// Word is a sequence of pull-through tokens applied to the target pair:
// either a pull through a calibrated ancilla of known flux, or a
// (possibly reversed) pull through a control pair. The net conjugator is
// the ordered product of token fluxes.
type Word []Token

// Token is one elementary pull-through.
type Token struct {
	Ctrl bool       // pull through the control pair instead of an ancilla
	Inv  bool       // reverse braiding direction (conjugate by the inverse)
	G    group.Perm // calibrated flux when Ctrl is false
}

// value evaluates the word's net conjugator when the control pair holds
// flux x.
func (w Word) value(x group.Perm) group.Perm {
	acc := group.Identity(len(x))
	for _, t := range w {
		g := t.G
		if t.Ctrl {
			g = x
		}
		if t.Inv {
			g = g.Inv()
		}
		acc = acc.Mul(g)
	}
	return acc
}

// inverse returns the word whose conjugator is the inverse.
func (w Word) inverse() Word {
	out := make(Word, len(w))
	for i, t := range w {
		t.Inv = !t.Inv
		out[len(w)-1-i] = t
	}
	return out
}

// apply performs the word's pulls on the register.
func (w Word) apply(r *Register, target, control int) {
	for _, t := range w {
		switch {
		case t.Ctrl && t.Inv:
			r.PullThroughInv(target, control)
		case t.Ctrl:
			r.PullThrough(target, control)
		case t.Inv:
			r.PullThroughFlux(target, t.G.Inv())
		default:
			r.PullThroughFlux(target, t.G)
		}
	}
}

// ToffoliWitness holds the two control words of the conjugation Toffoli:
// AWord evaluates to the identity on u₀ and to A₁ on u₁; BWord likewise to
// B₁, with [A₁, B₁] = v. The full gate applies the commutator word
// AWord⁻¹·BWord⁻¹·AWord·BWord to the target, which conjugates it by v
// exactly when both controls hold u₁ — a Toffoli built purely from
// pull-through operations, our reconstruction of the unpublished
// construction of ref. 65 (which quotes 16 pulls and 6 ancilla pairs;
// the systematic search below finds a 28-pull word — same constant-cost
// shape, somewhat longer).
type ToffoliWitness struct {
	AWord Word // references control A
	BWord Word // references control B
}

// PullCost returns the number of elementary pull-throughs of the gate.
func (w ToffoliWitness) PullCost() int {
	return 2 * (len(w.AWord) + len(w.BWord))
}

// FindToffoliWitness searches A₅ for the witness words. It first finds a
// commutator decomposition [A₁, B₁] = v, then realizes A₁ by a
// two-occurrence control word x·r·x·t (whose reachable values include
// the 3-cycles) and B₁ by a three-occurrence word x·r₁·x·r₂·x·t (which
// also reaches the order-2 class), each wrapped in a conjugating bookend.
func (e A5Encoding) FindToffoliWitness() (ToffoliWitness, error) {
	id := group.Identity(5)
	// Step 1: commutator decompositions of v.
	for _, a1 := range e.G.Elements {
		if a1.IsIdentity() {
			continue
		}
		for _, b1 := range e.G.Elements {
			if b1.IsIdentity() || !group.Commutator(a1, b1).Equal(e.V) {
				continue
			}
			aw, okA := e.findWord2(a1)
			bw, okB := e.findWord3(b1)
			if okA && okB {
				// Sanity: verify the four branch values.
				w := ToffoliWitness{AWord: aw, BWord: bw}
				if !aw.value(e.U0).Equal(id) || !aw.value(e.U1).Equal(a1) ||
					!bw.value(e.U0).Equal(id) || !bw.value(e.U1).Equal(b1) {
					continue
				}
				return w, nil
			}
		}
	}
	return ToffoliWitness{}, fmt.Errorf("anyon: no commutator witness found")
}

// findWord2 searches for a word wrap·(x·r·x·t)·wrap⁻¹ equal to target on
// x = u₁ and to e on x = u₀.
func (e A5Encoding) findWord2(target group.Perm) (Word, bool) {
	for _, r := range e.G.Elements {
		t := e.U0.Mul(r).Mul(e.U0).Inv() // forces the u₀ branch to e
		val := e.U1.Mul(r).Mul(e.U1).Mul(t)
		for _, wrap := range e.G.Elements {
			if wrap.Mul(val).Mul(wrap.Inv()).Equal(target) {
				return Word{
					{G: wrap},
					{Ctrl: true},
					{G: r},
					{Ctrl: true},
					{G: t},
					{G: wrap.Inv()},
				}, true
			}
		}
	}
	return nil, false
}

// findWord3 is findWord2 with three control occurrences, needed to reach
// the order-2 conjugacy class.
func (e A5Encoding) findWord3(target group.Perm) (Word, bool) {
	for _, r1 := range e.G.Elements {
		for _, r2 := range e.G.Elements {
			t := e.U0.Mul(r1).Mul(e.U0).Mul(r2).Mul(e.U0).Inv()
			val := e.U1.Mul(r1).Mul(e.U1).Mul(r2).Mul(e.U1).Mul(t)
			if val.Order() != target.Order() {
				continue
			}
			for _, wrap := range e.G.Elements {
				if wrap.Mul(val).Mul(wrap.Inv()).Equal(target) {
					return Word{
						{G: wrap},
						{Ctrl: true},
						{G: r1},
						{Ctrl: true},
						{G: r2},
						{Ctrl: true},
						{G: t},
						{G: wrap.Inv()},
					}, true
				}
			}
		}
	}
	return nil, false
}

// Toffoli applies the conjugation-word Toffoli: the target pair is
// conjugated by the commutator word, which evaluates to the u₀↔u₁
// exchange v exactly when both controls carry u₁ and to the identity
// otherwise. All operations are pull-throughs (Fig. 20); the controls are
// never modified.
func (e A5Encoding) Toffoli(r *Register, w ToffoliWitness, ctrlA, ctrlB, target int) {
	// W = A⁻¹ B⁻¹ A B applied in order.
	withCtrl := func(word Word, ctrl int) {
		word.apply(r, target, ctrl)
	}
	withCtrl(w.AWord.inverse(), ctrlA)
	withCtrl(w.BWord.inverse(), ctrlB)
	withCtrl(w.AWord, ctrlA)
	withCtrl(w.BWord, ctrlB)
}

// --- fault-tolerant interferometric measurement (Figs. 18, 22) ---

// InterferometerConfidence returns the probability that a majority vote
// over n independent interferometer passes, each erring with probability
// eta, reports the wrong flux/charge — the repetition fault tolerance of
// §7.3 ("if we have many charged projectiles and perform the measurement
// repeatedly, we can determine the flux with very high statistical
// confidence").
func InterferometerConfidence(eta float64, passes int) float64 {
	// P(majority wrong) = Σ_{k>n/2} C(n,k) ηᵏ(1−η)^{n−k}; ties broken
	// against us (conservative).
	wrong := 0.0
	for k := (passes + 1) / 2; k <= passes; k++ {
		if 2*k == passes {
			continue
		}
		wrong += binomPMF(passes, k, eta)
	}
	if passes%2 == 0 {
		wrong += binomPMF(passes, passes/2, eta) // tie counts as failure
	}
	return wrong
}

func binomPMF(n, k int, p float64) float64 {
	logC := 0.0
	for i := 0; i < k; i++ {
		logC += math.Log(float64(n-i)) - math.Log(float64(i+1))
	}
	return math.Exp(logC + float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p))
}

// NoisyFluxMeasurement simulates a repeated interferometric flux readout:
// the true flux is read through `passes` noisy passes (each reporting the
// wrong basis outcome with probability eta) and decided by majority.
// Returns whether the final decision was wrong.
func NoisyFluxMeasurement(truthBit int, eta float64, passes int, rng *rand.Rand) bool {
	votes := 0
	for i := 0; i < passes; i++ {
		read := truthBit
		if rng.Float64() < eta {
			read = 1 - read
		}
		if read == 1 {
			votes++
		}
	}
	decided := 0
	if 2*votes > passes {
		decided = 1
	} else if 2*votes == passes {
		// Tie: decide by coin, half the time wrong.
		if rng.IntN(2) == 1 {
			decided = 1
		}
	}
	return decided != truthBit
}
