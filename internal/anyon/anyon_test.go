package anyon

import (
	"math"
	"math/rand/v2"
	"testing"

	"ftqc/internal/group"
)

func TestNOTGate(t *testing.T) {
	e := NewA5Encoding()
	r := NewRegister(e.G, 1, e.U0)
	e.NOT(r, 0)
	got := r.MeasureFlux(0, rand.New(rand.NewPCG(1, 2)))
	if bit, _ := e.Bit(got); bit != 1 {
		t.Fatalf("NOT|0⟩ read %v", got)
	}
	e.NOT(r, 0)
	got = r.MeasureFlux(0, rand.New(rand.NewPCG(3, 4)))
	if bit, _ := e.Bit(got); bit != 0 {
		t.Fatal("NOT² must be identity")
	}
}

func TestPullThroughConjugates(t *testing.T) {
	// Eq. 41: pulling pair 1 through pair 0 conjugates pair 1's flux by
	// pair 0's flux and leaves pair 0 alone.
	e := NewA5Encoding()
	r := NewRegister(e.G, 2, e.U0)
	// Set pair 1 to u1 via NOT.
	e.NOT(r, 1)
	r.PullThrough(1, 0)
	rng := rand.New(rand.NewPCG(5, 6))
	f0 := r.MeasureFlux(0, rng)
	f1 := r.MeasureFlux(1, rng)
	if !f0.Equal(e.U0) {
		t.Fatal("control pair was modified")
	}
	if !f1.Equal(e.U1.Conj(e.U0)) {
		t.Fatalf("target flux %v, want %v", f1, e.U1.Conj(e.U0))
	}
}

func TestPullThroughInvUndoes(t *testing.T) {
	e := NewA5Encoding()
	r := NewRegister(e.G, 2, e.U0)
	e.NOT(r, 1)
	r.PullThrough(1, 0)
	r.PullThroughInv(1, 0)
	f1 := r.MeasureFlux(1, rand.New(rand.NewPCG(7, 8)))
	if !f1.Equal(e.U1) {
		t.Fatal("inverse pull did not undo the conjugation")
	}
}

func TestToffoliWitnessExists(t *testing.T) {
	e := NewA5Encoding()
	w, err := e.FindToffoliWitness()
	if err != nil {
		t.Fatal(err)
	}
	// Branch values: identity on u0, and a commutator pair equal to v on u1.
	id := group.Identity(5)
	a0 := wordValue(w.AWord, e.U0)
	b0 := wordValue(w.BWord, e.U0)
	if !a0.Equal(id) || !b0.Equal(id) {
		t.Fatal("witness words must vanish on the 0 branch")
	}
	a1 := wordValue(w.AWord, e.U1)
	b1 := wordValue(w.BWord, e.U1)
	if !group.Commutator(a1, b1).Equal(e.V) {
		t.Fatal("witness does not satisfy [A1,B1] = v")
	}
}

func wordValue(w Word, x group.Perm) group.Perm { return w.value(x) }

func TestToffoliTruthTable(t *testing.T) {
	e := NewA5Encoding()
	w, err := e.FindToffoliWitness()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(9, 10))
	for in := 0; in < 8; in++ {
		r := NewRegister(e.G, 3, e.U0)
		for q := 0; q < 3; q++ {
			if in>>uint(q)&1 == 1 {
				e.NOT(r, q)
			}
		}
		e.Toffoli(r, w, 0, 1, 2)
		want := in
		if in&3 == 3 {
			want ^= 4
		}
		got := 0
		for q := 0; q < 3; q++ {
			b, err := e.Bit(r.MeasureFlux(q, rng))
			if err != nil {
				t.Fatalf("input %03b: %v", in, err)
			}
			got |= b << uint(q)
		}
		if got != want {
			t.Fatalf("input %03b: got %03b want %03b", in, got, want)
		}
	}
}

func TestToffoliOnSuperposition(t *testing.T) {
	// Charge measurement prepares (|0⟩±|1⟩)/√2 on a control pair (§7.3);
	// the Toffoli must act coherently on the superposition.
	e := NewA5Encoding()
	w, err := e.FindToffoliWitness()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(11, 12))
	r := NewRegister(e.G, 3, e.U0)
	e.NOT(r, 1) // control B = 1
	minus := r.MeasureCharge(0, e.U0, e.U1, rng)
	if r.Terms() != 2 {
		t.Fatalf("charge measurement should create a 2-term superposition, got %d", r.Terms())
	}
	e.Toffoli(r, w, 0, 1, 2)
	// The state is now (|0,1,0⟩ ± |1,1,1⟩)/√2: measuring control A and
	// target must give perfectly correlated bits.
	_ = minus
	a, _ := e.Bit(r.MeasureFlux(0, rng))
	c, _ := e.Bit(r.MeasureFlux(2, rng))
	if a != c {
		t.Fatalf("Toffoli on superposition: control %d target %d must correlate", a, c)
	}
}

func TestChargeMeasurementStatistics(t *testing.T) {
	// On the flux eigenstate |u0⟩ the charge reads ± with probability 1/2
	// each, and afterwards the flux is an equal superposition.
	e := NewA5Encoding()
	minusCount := 0
	const trials = 400
	for i := 0; i < trials; i++ {
		rng := rand.New(rand.NewPCG(uint64(i), 13))
		r := NewRegister(e.G, 1, e.U0)
		if r.MeasureCharge(0, e.U0, e.U1, rng) {
			minusCount++
		}
		if r.Terms() != 2 {
			t.Fatalf("charge projection should leave 2 flux terms, got %d", r.Terms())
		}
	}
	if minusCount < trials/4 || minusCount > 3*trials/4 {
		t.Fatalf("charge outcomes biased: %d/%d minus", minusCount, trials)
	}
}

func TestChargeThenFluxIsCoin(t *testing.T) {
	// §7.3: the interferometer projects a flux eigenstate onto |±⟩; a
	// subsequent flux measurement yields u0 or u1 with probability 1/2.
	e := NewA5Encoding()
	ones := 0
	const trials = 400
	for i := 0; i < trials; i++ {
		rng := rand.New(rand.NewPCG(uint64(i), 14))
		r := NewRegister(e.G, 1, e.U0)
		r.MeasureCharge(0, e.U0, e.U1, rng)
		b, err := e.Bit(r.MeasureFlux(0, rng))
		if err != nil {
			t.Fatal(err)
		}
		ones += b
	}
	if ones < trials/4 || ones > 3*trials/4 {
		t.Fatalf("flux after charge measurement biased: %d/%d", ones, trials)
	}
}

func TestChargeMeasurementRepeatable(t *testing.T) {
	e := NewA5Encoding()
	rng := rand.New(rand.NewPCG(15, 16))
	r := NewRegister(e.G, 1, e.U0)
	first := r.MeasureCharge(0, e.U0, e.U1, rng)
	for i := 0; i < 5; i++ {
		if r.MeasureCharge(0, e.U0, e.U1, rng) != first {
			t.Fatal("repeated charge measurement changed its mind")
		}
	}
}

func TestInterferometerConfidence(t *testing.T) {
	// Repetition suppresses the readout error exponentially.
	e1 := InterferometerConfidence(0.2, 1)
	e15 := InterferometerConfidence(0.2, 15)
	e51 := InterferometerConfidence(0.2, 51)
	if !(e51 < e15 && e15 < e1) {
		t.Fatalf("no suppression: %v %v %v", e1, e15, e51)
	}
	if e51 > 1e-4 {
		t.Fatalf("51 passes at η=0.2 should be very reliable, got %v", e51)
	}
	// Cross-check against Monte Carlo.
	rng := rand.New(rand.NewPCG(17, 18))
	wrong := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if NoisyFluxMeasurement(1, 0.2, 15, rng) {
			wrong++
		}
	}
	mc := float64(wrong) / trials
	if math.Abs(mc-e15) > 5*math.Sqrt(e15/(trials))+0.005 {
		t.Fatalf("MC %v vs analytic %v", mc, e15)
	}
}

func TestToffoliPullCost(t *testing.T) {
	// The register counts elementary pull-throughs; the systematic word
	// costs a constant 28 pulls (ref. 65 quotes 16 for its unpublished
	// word — same constant-cost shape).
	e := NewA5Encoding()
	w, err := e.FindToffoliWitness()
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegister(e.G, 3, e.U0)
	e.Toffoli(r, w, 0, 1, 2)
	if r.Pulls != w.PullCost() || r.Pulls != toffoliPullCount {
		t.Fatalf("Toffoli used %d pull-throughs, witness claims %d, const %d",
			r.Pulls, w.PullCost(), toffoliPullCount)
	}
}

func TestNOTCostsOnePull(t *testing.T) {
	e := NewA5Encoding()
	r := NewRegister(e.G, 1, e.U0)
	e.NOT(r, 0)
	if r.Pulls != 1 {
		t.Fatalf("NOT used %d pulls", r.Pulls)
	}
}

// toffoliPullCount is the pull cost of the systematic construction; the
// unpublished ref. 65 word achieves 16.
const toffoliPullCount = 28
