package tableau

import (
	"math/rand/v2"
	"testing"

	"ftqc/internal/pauli"
	"ftqc/internal/statevec"
)

func TestFreshStateMeasuresZero(t *testing.T) {
	tb := New(4, nil)
	for q := 0; q < 4; q++ {
		out, det := tb.MeasureZ(q)
		if out || !det {
			t.Fatalf("qubit %d: out=%v det=%v, want 0 deterministic", q, out, det)
		}
	}
}

func TestBellPairCorrelations(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	ones := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		tb := New(2, rng)
		tb.H(0)
		tb.CNOT(0, 1)
		a, det := tb.MeasureZ(0)
		if det {
			t.Fatal("Bell measurement should be random")
		}
		b, det2 := tb.MeasureZ(1)
		if !det2 {
			t.Fatal("second Bell measurement should be deterministic")
		}
		if a != b {
			t.Fatal("Bell pair outcomes disagree")
		}
		if a {
			ones++
		}
	}
	if ones < trials/4 || ones > 3*trials/4 {
		t.Fatalf("Bell outcome highly biased: %d/%d ones", ones, trials)
	}
}

func TestXFlipsMeasurement(t *testing.T) {
	tb := New(3, nil)
	tb.X(1)
	out, det := tb.MeasureZ(1)
	if !out || !det {
		t.Fatal("X|0> should measure 1 deterministically")
	}
}

func TestGHZStabilizers(t *testing.T) {
	tb := New(3, nil)
	tb.H(0)
	tb.CNOT(0, 1)
	tb.CNOT(0, 2)
	// GHZ is stabilized by XXX, ZZI, IZZ.
	for _, s := range []string{"XXX", "ZZI", "IZZ", "ZIZ"} {
		out, det := tb.Clone().MeasurePauli(pauli.MustFromString(s))
		if !det || out {
			t.Fatalf("GHZ should be +1 eigenstate of %s (det=%v out=%v)", s, det, out)
		}
	}
	out, det := tb.Clone().MeasurePauli(pauli.MustFromString("-XXX"))
	if !det || !out {
		t.Fatal("-XXX must measure -1 deterministically on GHZ")
	}
}

func TestMeasurePauliY(t *testing.T) {
	// S H |0> = S|+> = (|0>+i|1>)/√2 is the +1 eigenstate of Y.
	tb := New(1, nil)
	tb.H(0)
	tb.S(0)
	out, det := tb.MeasurePauli(pauli.MustFromString("Y"))
	if !det || out {
		t.Fatalf("S·H|0> should be +1 eigenstate of Y (det=%v out=%v)", det, out)
	}
}

func TestResetClearsQubit(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	tb := New(2, rng)
	tb.H(0)
	tb.CNOT(0, 1)
	tb.Reset(0)
	out, det := tb.MeasureZ(0)
	if out || !det {
		t.Fatal("reset qubit should read 0 deterministically")
	}
}

func TestSameStateCanonical(t *testing.T) {
	// Two different circuits preparing a Bell state must compare equal.
	a := New(2, nil)
	a.H(0)
	a.CNOT(0, 1)
	b := New(2, nil)
	b.H(1)
	b.CNOT(1, 0)
	if !SameState(a, b) {
		t.Fatal("equivalent Bell preparations compare different")
	}
	c := New(2, nil)
	c.H(0)
	c.CNOT(0, 1)
	c.Z(0)
	if SameState(a, c) {
		t.Fatal("distinct states compare equal")
	}
}

// applyRandomClifford drives both simulators through the same random
// Clifford circuit.
func applyRandomClifford(rng *rand.Rand, tb *Tableau, sv *statevec.State, gates int) {
	n := tb.N()
	for g := 0; g < gates; g++ {
		switch rng.IntN(6) {
		case 0:
			q := rng.IntN(n)
			tb.H(q)
			sv.H(q)
		case 1:
			q := rng.IntN(n)
			tb.S(q)
			sv.S(q)
		case 2:
			q := rng.IntN(n)
			tb.X(q)
			sv.X(q)
		case 3:
			q := rng.IntN(n)
			tb.Z(q)
			sv.Z(q)
		case 4:
			q := rng.IntN(n)
			tb.Y(q)
			sv.Y(q)
		default:
			a, b := rng.IntN(n), rng.IntN(n)
			if a == b {
				b = (b + 1) % n
			}
			tb.CNOT(a, b)
			sv.CNOT(a, b)
		}
	}
}

func TestCrossValidateAgainstStatevector(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 43))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.IntN(5)
		tb := New(n, rng)
		sv := statevec.NewZero(n)
		applyRandomClifford(rng, tb, sv, 40)
		// Every stabilizer generator of the tableau must have expectation
		// +1 in the state vector.
		for i := 0; i < n; i++ {
			row := tb.StabilizerRow(i)
			if e := sv.ExpectPauli(row); e < 0.999 {
				t.Fatalf("trial %d: stabilizer %v has expectation %.4f", trial, row, e)
			}
		}
		// Measurement probabilities must agree: deterministic tableau
		// outcomes match statevec probability 0 or 1; random ones are 1/2.
		for q := 0; q < n; q++ {
			p1 := sv.Prob1(q)
			out, det := tb.Clone().MeasureZ(q)
			if det {
				want := 0.0
				if out {
					want = 1.0
				}
				if diff := p1 - want; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("trial %d qubit %d: deterministic %v but P(1)=%.6f", trial, q, out, p1)
				}
			} else if p1 < 0.499 || p1 > 0.501 {
				t.Fatalf("trial %d qubit %d: random outcome but P(1)=%.6f", trial, q, p1)
			}
		}
	}
}

func TestMeasurementRepeatable(t *testing.T) {
	// Measuring the same qubit twice must give the same answer.
	rng := rand.New(rand.NewPCG(77, 78))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.IntN(4)
		tb := New(n, rng)
		sv := statevec.NewZero(n) // unused driver, keeps circuits aligned
		applyRandomClifford(rng, tb, sv, 30)
		q := rng.IntN(n)
		first, _ := tb.MeasureZ(q)
		second, det := tb.MeasureZ(q)
		if !det || first != second {
			t.Fatalf("repeated measurement changed: %v then %v (det=%v)", first, second, det)
		}
	}
}

func TestApplyPauliFlipsSign(t *testing.T) {
	tb := New(2, nil)
	tb.H(0)
	tb.CNOT(0, 1)
	tb.ApplyPauli(pauli.MustFromString("ZI")) // turns |00>+|11> into |00>-|11>
	out, det := tb.MeasurePauli(pauli.MustFromString("XX"))
	if !det || !out {
		t.Fatal("Z on a Bell pair must flip the XX eigenvalue")
	}
}

func TestCZSymmetric(t *testing.T) {
	a := New(2, nil)
	a.H(0)
	a.H(1)
	a.CZ(0, 1)
	b := New(2, nil)
	b.H(0)
	b.H(1)
	b.CZ(1, 0)
	if !SameState(a, b) {
		t.Fatal("CZ must be symmetric")
	}
}

// SWAP exchanges qubits a and b.
func (t *Tableau) SWAP(a, b int) { t.CNOT(a, b); t.CNOT(b, a); t.CNOT(a, b) }

func TestSWAP(t *testing.T) {
	tb := New(2, nil)
	tb.X(0)
	tb.SWAP(0, 1)
	o0, _ := tb.MeasureZ(0)
	o1, _ := tb.MeasureZ(1)
	if o0 || !o1 {
		t.Fatal("SWAP did not move the excitation")
	}
}

func TestSdgInvertsS(t *testing.T) {
	tb := New(1, nil)
	tb.H(0)
	tb.S(0)
	tb.Sdg(0)
	tb.H(0)
	out, det := tb.MeasureZ(0)
	if out || !det {
		t.Fatal("H S Sdg H |0> should be |0>")
	}
}
