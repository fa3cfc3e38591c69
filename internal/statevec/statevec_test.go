package statevec

import (
	"math"
	"math/rand/v2"
	"testing"

	"ftqc/internal/pauli"
)

const eps = 1e-12

func TestHadamardTwiceIsIdentity(t *testing.T) {
	s := NewZero(1)
	s.H(0)
	s.H(0)
	if math.Abs(real(s.Amplitude(0))-1) > eps {
		t.Fatal("H^2 != I")
	}
}

func TestBellState(t *testing.T) {
	s := NewZero(2)
	s.H(0)
	s.CNOT(0, 1)
	want := 1 / math.Sqrt2
	if math.Abs(real(s.Amplitude(0))-want) > eps || math.Abs(real(s.Amplitude(3))-want) > eps {
		t.Fatalf("Bell amplitudes wrong: %v %v", s.Amplitude(0), s.Amplitude(3))
	}
	if math.Abs(s.ExpectPauli(pauli.MustFromString("XX"))-1) > eps {
		t.Fatal("Bell state should satisfy <XX>=1")
	}
	if math.Abs(s.ExpectPauli(pauli.MustFromString("ZZ"))-1) > eps {
		t.Fatal("Bell state should satisfy <ZZ>=1")
	}
	if math.Abs(s.ExpectPauli(pauli.MustFromString("ZI"))) > eps {
		t.Fatal("Bell state should satisfy <ZI>=0")
	}
}

func TestToffoliTruthTable(t *testing.T) {
	for in := 0; in < 8; in++ {
		s := NewZero(3)
		for q := 0; q < 3; q++ {
			if in>>uint(q)&1 == 1 {
				s.X(q)
			}
		}
		s.Toffoli(0, 1, 2)
		want := in
		if in&3 == 3 {
			want ^= 4
		}
		if math.Abs(real(s.Amplitude(want))-1) > eps {
			t.Fatalf("Toffoli on |%03b>: amplitude at |%03b> is %v", in, want, s.Amplitude(want))
		}
	}
}

func TestCCZPhase(t *testing.T) {
	s := NewZero(3)
	s.X(0)
	s.X(1)
	s.X(2)
	s.CCZ(0, 1, 2)
	if math.Abs(real(s.Amplitude(7))+1) > eps {
		t.Fatal("CCZ|111> != -|111>")
	}
}

func TestSGate(t *testing.T) {
	s := NewZero(1)
	s.X(0)
	s.S(0)
	if math.Abs(imag(s.Amplitude(1))-1) > eps {
		t.Fatal("S|1> != i|1>")
	}
}

func TestTSquaredIsS(t *testing.T) {
	a := NewZero(1)
	a.H(0)
	a.T(0)
	a.T(0)
	b := NewZero(1)
	b.H(0)
	b.S(0)
	if Fidelity(a, b) < 1-eps {
		t.Fatal("T^2 != S")
	}
}

func TestRotZComposition(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	for trial := 0; trial < 20; trial++ {
		th1, th2 := rng.Float64(), rng.Float64()
		a := NewZero(1)
		a.H(0)
		a.RotZ(0, th1)
		a.RotZ(0, th2)
		b := NewZero(1)
		b.H(0)
		b.RotZ(0, th1+th2)
		if Fidelity(a, b) < 1-1e-9 {
			t.Fatal("RotZ angles do not add")
		}
	}
}

func TestApplyPauliMatchesGates(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 34))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.IntN(4)
		// Random product state via rotations.
		mk := func() *State {
			s := NewZero(n)
			for q := 0; q < n; q++ {
				s.RotX(q, rng.Float64()*3)
				s.RotZ(q, rng.Float64()*3)
			}
			return s
		}
		seed1, seed2 := rng.Uint64(), rng.Uint64()
		_ = seed1
		_ = seed2
		a := mk()
		b := a.Clone()
		p := pauli.NewIdentity(n)
		for q := 0; q < n; q++ {
			p.SetAt(q, pauli.Single(rng.IntN(4)))
		}
		a.ApplyPauli(p)
		for q := 0; q < n; q++ {
			switch p.At(q) {
			case pauli.X:
				b.X(q)
			case pauli.Z:
				b.Z(q)
			case pauli.Y:
				b.Y(q)
			}
		}
		// ApplyPauli uses i^Phase X^x Z^z; Y gates in b contribute the
		// Hermitian Y. p was built with phase 0 so they differ by i per Y.
		// Compare fidelity, which ignores global phase.
		if Fidelity(a, b) < 1-1e-9 {
			t.Fatalf("ApplyPauli disagrees with gate sequence for %v", p)
		}
	}
}

func TestMeasureCollapse(t *testing.T) {
	rng := rand.New(rand.NewPCG(35, 36))
	s := NewZero(2)
	s.H(0)
	s.CNOT(0, 1)
	out := s.MeasureZ(0, rng)
	// After collapse the second qubit must deterministically agree.
	if p := s.Prob1(1); math.Abs(p-b2f(out)) > eps {
		t.Fatalf("collapse failed: P(q1=1)=%.6f after q0=%v", p, out)
	}
	if math.Abs(s.Norm()-1) > eps {
		t.Fatal("state not renormalized after measurement")
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func TestFidelitySelf(t *testing.T) {
	s := NewZero(3)
	s.H(0)
	s.CNOT(0, 1)
	s.T(2)
	if f := Fidelity(s, s); math.Abs(f-1) > eps {
		t.Fatalf("self fidelity %v", f)
	}
}

func TestNormPreservedByGates(t *testing.T) {
	rng := rand.New(rand.NewPCG(37, 38))
	s := NewZero(4)
	for i := 0; i < 50; i++ {
		switch rng.IntN(5) {
		case 0:
			s.H(rng.IntN(4))
		case 1:
			s.T(rng.IntN(4))
		case 2:
			s.RotX(rng.IntN(4), rng.Float64())
		case 3:
			s.CNOT(0, 1+rng.IntN(3))
		default:
			s.Toffoli(0, 1, 2+rng.IntN(2))
		}
	}
	if math.Abs(s.Norm()-1) > 1e-9 {
		t.Fatalf("norm drifted to %v", s.Norm())
	}
}

// T applies diag(1, e^{iπ/4}).
func (s *State) T(q int) { s.Apply1Q(matT, q) }

// Norm returns ⟨ψ|ψ⟩ (should be 1 for a normalized state).
func (s *State) Norm() float64 {
	n := 0.0
	for _, a := range s.amp {
		n += real(a)*real(a) + imag(a)*imag(a)
	}
	return n
}
