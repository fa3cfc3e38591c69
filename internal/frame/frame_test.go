package frame

import (
	"math/rand/v2"
	"testing"

	"ftqc/internal/circuit"
	"ftqc/internal/noise"
	"ftqc/internal/pauli"
	"ftqc/internal/tableau"
)

func noiseless() noise.Params { return noise.Params{} }

func TestPropagationIdentities(t *testing.T) {
	// X propagates forward through CNOT (control to target), §3.1.
	s := New(2, noiseless(), nil)
	s.InjectX(0)
	s.CNOT(0, 1)
	if !s.XError(0) || !s.XError(1) {
		t.Fatal("X did not propagate control→target")
	}
	// Z propagates backward (target to control).
	s = New(2, noiseless(), nil)
	s.InjectZ(1)
	s.CNOT(0, 1)
	if !s.ZError(0) || !s.ZError(1) {
		t.Fatal("Z did not propagate target→control")
	}
	// H exchanges X and Z (Fig. 5's basis-change identity).
	s = New(1, noiseless(), nil)
	s.InjectX(0)
	s.H(0)
	if s.XError(0) || !s.ZError(0) {
		t.Fatal("H did not turn X into Z")
	}
	// S turns X into Y.
	s = New(1, noiseless(), nil)
	s.InjectX(0)
	s.S(0)
	if !s.XError(0) || !s.ZError(0) {
		t.Fatal("S did not turn X into Y")
	}
}

func TestNoiselessCircuitNoFlips(t *testing.T) {
	c := circuit.New(4)
	for q := 0; q < 4; q++ {
		c.PrepZ(q)
	}
	c.H(0)
	c.CNOT(0, 1)
	c.CNOT(1, 2)
	c.CNOT(2, 3)
	for q := 0; q < 4; q++ {
		c.MeasZ(q)
	}
	s := New(4, noiseless(), nil)
	for _, f := range s.Run(c) {
		if f {
			t.Fatal("noiseless run produced a flip")
		}
	}
	if s.FaultCount != 0 {
		t.Fatal("noiseless run injected faults")
	}
}

// TestFrameMatchesTableauConjugation is the central correctness property:
// injecting a Pauli error E before a Clifford circuit C is equivalent to
// running C cleanly and applying the frame-propagated error afterwards.
func TestFrameMatchesTableauConjugation(t *testing.T) {
	rng := rand.New(rand.NewPCG(101, 102))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.IntN(5)
		// Random Clifford circuit without measurements.
		type gate struct{ kind, a, b int }
		var gates []gate
		for g := 0; g < 25; g++ {
			k := rng.IntN(4)
			a := rng.IntN(n)
			b := rng.IntN(n)
			if b == a {
				b = (b + 1) % n
			}
			gates = append(gates, gate{k, a, b})
		}
		apply := func(tb *tableau.Tableau) {
			for _, g := range gates {
				switch g.kind {
				case 0:
					tb.H(g.a)
				case 1:
					tb.S(g.a)
				case 2:
					tb.CNOT(g.a, g.b)
				case 3:
					tb.CZ(g.a, g.b)
				}
			}
		}
		// Random error.
		e := pauli.NewIdentity(n)
		for q := 0; q < n; q++ {
			e.SetAt(q, pauli.Single(rng.IntN(4)))
		}
		// Path 1: error then circuit, on a random stabilizer input state.
		prep := func() *tableau.Tableau {
			tb := tableau.New(n, rng)
			tb.H(0)
			for q := 1; q < n; q++ {
				tb.CNOT(0, q)
			}
			return tb
		}
		tb1 := prep()
		tb1.ApplyPauli(e)
		apply(tb1)
		// Path 2: circuit, then frame-propagated error.
		s := New(n, noiseless(), nil)
		for q := 0; q < n; q++ {
			if e.XBits.Get(q) {
				s.InjectX(q)
			}
			if e.ZBits.Get(q) {
				s.InjectZ(q)
			}
		}
		for _, g := range gates {
			switch g.kind {
			case 0:
				s.H(g.a)
			case 1:
				s.S(g.a)
			case 2:
				s.CNOT(g.a, g.b)
			case 3:
				s.CZ(g.a, g.b)
			}
		}
		prop := pauli.NewIdentity(n)
		for q := 0; q < n; q++ {
			prop.XBits.Set(q, s.XError(q))
			prop.ZBits.Set(q, s.ZError(q))
		}
		tb2 := prep()
		apply(tb2)
		tb2.ApplyPauli(prop)
		if !tableau.SameState(tb1, tb2) {
			t.Fatalf("trial %d: frame propagation disagrees with tableau for %v", trial, e)
		}
	}
}

func TestMeasurementReadsFrame(t *testing.T) {
	s := New(2, noiseless(), nil)
	s.InjectX(0)
	s.InjectZ(1)
	if !s.MeasZ(0) {
		t.Fatal("X error must flip a Z measurement")
	}
	if s.MeasZ(1) {
		t.Fatal("Z error must not flip a Z measurement")
	}
	s2 := New(1, noiseless(), nil)
	s2.InjectZ(0)
	if !s2.MeasX(0) {
		t.Fatal("Z error must flip an X measurement")
	}
}

func TestPrepClearsFrame(t *testing.T) {
	s := New(1, noiseless(), nil)
	s.InjectX(0)
	s.InjectZ(0)
	s.PrepZ(0)
	if s.XError(0) || s.ZError(0) {
		t.Fatal("PrepZ did not clear the frame")
	}
}

func TestNoiseRates(t *testing.T) {
	// With Gate1 = 0.3, roughly 30% of H gates must inject a fault.
	rng := rand.New(rand.NewPCG(111, 112))
	s := New(1, noise.Params{Gate1: 0.3}, rng)
	const n = 20000
	for i := 0; i < n; i++ {
		s.H(0)
	}
	rate := float64(s.FaultCount) / n
	if rate < 0.27 || rate > 0.33 {
		t.Fatalf("gate fault rate %.4f, want ≈0.30", rate)
	}
}

func TestTwoQubitNoiseHitsBothSides(t *testing.T) {
	// Count X-side marginal rate on the control: of the 15 two-qubit
	// Paulis, 8 have X or Y on the first qubit → marginal 8/15 per fault.
	rng := rand.New(rand.NewPCG(113, 114))
	const n = 30000
	hits := 0
	for i := 0; i < n; i++ {
		s := New(2, noise.Params{Gate2: 1}, rng)
		s.CNOT(0, 1)
		if s.XError(0) {
			hits++
		}
	}
	rate := float64(hits) / n
	if rate < 0.50 || rate > 0.57 {
		t.Fatalf("control X marginal %.4f, want ≈8/15=0.533", rate)
	}
}

func TestStorageNoiseOnlyWhenIdle(t *testing.T) {
	// Qubit 1 idles while qubit 0 works: with Storage=1 it must pick up
	// noise every idle moment; a qubit outside its live range must not.
	rng := rand.New(rand.NewPCG(115, 116))
	c := circuit.New(3)
	c.H(1)
	c.H(0)
	c.H(0)
	c.H(0)
	c.Barrier()
	c.H(1)
	s := New(3, noise.Params{Storage: 1}, rng)
	s.Run(c)
	if s.FaultCount == 0 {
		t.Fatal("idle qubit picked up no storage noise")
	}
	if s.XError(2) || s.ZError(2) {
		t.Fatal("unused qubit 2 got storage noise")
	}
}

func TestLeakageDetectAndReplace(t *testing.T) {
	rng := rand.New(rand.NewPCG(117, 118))
	s := New(1, noise.Params{Leak: 1}, rng)
	s.H(0)
	if !s.Leaked(0) {
		t.Fatal("qubit should have leaked")
	}
	s.ReplaceLeaked(0)
	if s.Leaked(0) {
		t.Fatal("replacement did not clear leakage")
	}
}

func TestFrameOn(t *testing.T) {
	s := New(4, noiseless(), nil)
	s.InjectX(1)
	s.InjectZ(3)
	x, z := s.FrameOn([]int{1, 3})
	if !x.Get(0) || x.Get(1) || z.Get(0) || !z.Get(1) {
		t.Fatal("FrameOn extracted wrong bits")
	}
}
