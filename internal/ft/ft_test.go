package ft

import (
	"math/rand/v2"
	"testing"

	"ftqc/internal/circuit"
	"ftqc/internal/frame"
	"ftqc/internal/noise"
	"ftqc/internal/pauli"
	"ftqc/internal/statevec"
	"ftqc/internal/tableau"
)

func quiet() noise.Params { return noise.Params{} }

func TestCodeIsValidSteane(t *testing.T) {
	c := Code()
	if c.N != 7 || c.K != 1 {
		t.Fatalf("got [[%d,%d]]", c.N, c.K)
	}
	if d := c.MinDistance(3); d != 3 {
		t.Fatalf("distance %d", d)
	}
}

func TestPrepZeroCircuitOnTableau(t *testing.T) {
	// The Fig. 3 encoder with |0⟩ input must produce the +1 eigenstate of
	// every stabilizer generator and of logical Ẑ.
	cc := circuit.New(7)
	PrepZeroCircuit(cc, []int{0, 1, 2, 3, 4, 5, 6})
	tb := tableau.New(7, rand.New(rand.NewPCG(7, 8)))
	tableau.Apply(tb, cc)
	for i, g := range Code().Generators {
		out, det := tb.Clone().MeasurePauli(g)
		if !det || out {
			t.Fatalf("generator %d (%v) not +1 after encoding", i, g)
		}
	}
	out, det := tb.MeasurePauli(Code().LogicalZ[0])
	if !det || out {
		t.Fatal("logical Z not +1: encoder did not make |0̄⟩")
	}
}

func TestEncodeCircuitEncodesOne(t *testing.T) {
	// Feed |1⟩ into the encoder: the result must be |1̄⟩.
	cc := circuit.New(7)
	EncodeCircuit(cc, []int{0, 1, 2, 3, 4, 5, 6})
	tb := tableau.New(7, rand.New(rand.NewPCG(9, 10)))
	tb.X(4) // the unknown input sits on wire 4
	tableau.Apply(tb, cc)
	for i, g := range Code().Generators {
		out, det := tb.Clone().MeasurePauli(g)
		if !det || out {
			t.Fatalf("generator %d not +1 after encoding |1⟩", i)
		}
	}
	out, det := tb.MeasurePauli(Code().LogicalZ[0])
	if !det || !out {
		t.Fatal("encoder did not produce |1̄⟩ from |1⟩")
	}
}

func TestEncodeCircuitPreservesSuperposition(t *testing.T) {
	// Feed |+⟩: the encoder must output |+̄⟩ (X̂ = +1).
	cc := circuit.New(7)
	EncodeCircuit(cc, []int{0, 1, 2, 3, 4, 5, 6})
	tb := tableau.New(7, rand.New(rand.NewPCG(11, 12)))
	tb.H(4)
	tableau.Apply(tb, cc)
	out, det := tb.MeasurePauli(Code().LogicalX[0])
	if !det || out {
		t.Fatal("encoder did not map |+⟩ to |+̄⟩")
	}
}

func TestNoiselessECCorrectsAllSingleErrors(t *testing.T) {
	data, _, _, _, _ := oneBlockLayout()
	for _, method := range []ECMethod{MethodSteane, MethodShor, MethodNaive} {
		for q := 0; q < 7; q++ {
			for _, kind := range []string{"X", "Z", "Y"} {
				s := frame.New(oneBlockWires, quiet(), rand.New(rand.NewPCG(21, uint64(q))))
				if kind == "X" || kind == "Y" {
					s.InjectX(data[q])
				}
				if kind == "Z" || kind == "Y" {
					s.InjectZ(data[q])
				}
				RunEC(s, method, DefaultConfig())
				if x, z := IdealDecode(s, data); x || z {
					t.Fatalf("%v: %s@%d not corrected", method, kind, q)
				}
				// The frame must be literally clean (correction exact).
				fx, fz := s.FrameOn(data)
				if !hamming().Syndrome(fx).Zero() || !hamming().Syndrome(fz).Zero() {
					t.Fatalf("%v: %s@%d left a detectable residue", method, kind, q)
				}
			}
		}
	}
}

// countLocations runs a gadget noiselessly and reports how many fault
// locations it visits.
func countLocations(run func(s *frame.Sim)) int {
	s := frame.New(64, quiet(), rand.New(rand.NewPCG(31, 32)))
	run(s)
	return s.LocationCount
}

// TestSteaneECFaultTolerant is the exhaustive single-fault test of the
// §3 design: for EVERY fault location in the recovery gadget and EVERY
// nontrivial Pauli at that location, one fault followed by a clean
// recovery must never produce a logical error. This is precisely the
// property "recovery fails only if two independent errors occur".
func TestSteaneECFaultTolerant(t *testing.T) {
	exhaustiveSingleFault(t, MethodSteane)
}

// TestShorECFaultTolerant is the same property for the Shor-method
// gadget of Figs. 7–8.
func TestShorECFaultTolerant(t *testing.T) {
	exhaustiveSingleFault(t, MethodShor)
}

func exhaustiveSingleFault(t *testing.T, method ECMethod) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.ChargeIdle = false
	data, _, _, _, _ := oneBlockLayout()
	total := countLocations(func(s *frame.Sim) { RunEC(s, method, cfg) })
	if total < 50 {
		t.Fatalf("suspiciously few locations: %d", total)
	}
	for loc := 0; loc < total; loc++ {
		// All nontrivial Pauli faults on the location's support (up to 15
		// for a two-qubit gate).
		for fault := 1; fault < 16; fault++ {
			s := frame.New(oneBlockWires, quiet(), rand.New(rand.NewPCG(41, uint64(loc))))
			s.Trigger = loc
			applied := false
			s.TriggerFault = func(s *frame.Sim, qubits []int) {
				f := fault
				for _, q := range qubits {
					if f&1 != 0 {
						s.InjectX(q)
					}
					if f&2 != 0 {
						s.InjectZ(q)
					}
					f >>= 2
				}
				applied = f == 0 // fault fit the location's arity
			}
			RunEC(s, method, cfg)
			if !applied {
				continue // 2-qubit fault pattern on a 1-qubit location
			}
			// Clean recovery afterwards, then referee.
			s.Trigger = -1
			RunEC(s, method, cfg)
			if x, z := IdealDecode(s, data); x || z {
				t.Fatalf("%v: single fault %d at location %d/%d caused a logical error (x=%v z=%v)",
					method, fault, loc, total, x, z)
			}
		}
	}
}

// TestNaiveECNotFaultTolerant demonstrates the Fig. 2 failure mode: there
// exists a single fault location whose error defeats the naive gadget.
func TestNaiveECNotFaultTolerant(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ChargeIdle = false
	data, _, _, _, _ := oneBlockLayout()
	total := countLocations(func(s *frame.Sim) { NaiveEC(s, data, 25, cfg) })
	for loc := 0; loc < total; loc++ {
		for fault := 1; fault < 16; fault++ {
			s := frame.New(oneBlockWires, quiet(), rand.New(rand.NewPCG(43, uint64(loc))))
			s.Trigger = loc
			s.TriggerFault = func(s *frame.Sim, qubits []int) {
				f := fault
				for _, q := range qubits {
					if f&1 != 0 {
						s.InjectX(q)
					}
					if f&2 != 0 {
						s.InjectZ(q)
					}
					f >>= 2
				}
			}
			NaiveEC(s, data, 25, cfg)
			s.Trigger = -1
			NaiveEC(s, data, 25, cfg)
			if x, z := IdealDecode(s, data); x || z {
				return // found the expected catastrophic location
			}
		}
	}
	t.Fatal("naive EC unexpectedly survived every single fault — Fig. 2 should not be fault tolerant")
}

func TestCatVerificationCatchesPairs(t *testing.T) {
	// A double bit-flip on cat bits {0,3}-separated parts must be caught:
	// inject X on cat qubit 1 right after the first chain CNOT; the paper
	// argues the first and fourth bits then disagree.
	cfg := DefaultConfig()
	s := frame.New(oneBlockWires, quiet(), rand.New(rand.NewPCG(51, 52)))
	cat := []int{21, 22, 23, 24}
	// Arm a fault: X on qubit cat[1] fired at the CNOT(cat0→cat1)
	// location (location 5: 4 preps + H = locations 0..4).
	s.Trigger = 5
	s.TriggerFault = func(s *frame.Sim, _ []int) { s.InjectX(cat[1]) }
	attempts := PrepVerifiedCat(s, cat, 25, cfg)
	if attempts < 2 {
		t.Fatalf("verification accepted a cat state with a propagating flip (attempts=%d)", attempts)
	}
	// After the accepted attempt the cat must carry no double flip:
	fx, _ := s.FrameOn(cat)
	if fx.Weight() >= 2 {
		t.Fatalf("accepted cat state carries %d bit flips", fx.Weight())
	}
}

func TestMeasureLogicalZRobustToSingleFlip(t *testing.T) {
	data, _, _, _, _ := oneBlockLayout()
	for q := 0; q < 7; q++ {
		s := frame.New(oneBlockWires, quiet(), rand.New(rand.NewPCG(61, uint64(q))))
		s.InjectX(data[q])
		if MeasureLogicalZ(s, data) {
			t.Fatalf("single flip on qubit %d corrupted the logical readout", q)
		}
	}
	// Two flips defeat it (Eq. 12's classical shadow).
	s := frame.New(oneBlockWires, quiet(), rand.New(rand.NewPCG(62, 63)))
	s.InjectX(data[0])
	s.InjectX(data[1])
	if !MeasureLogicalZ(s, data) {
		t.Fatal("double flip should flip the logical readout")
	}
}

func TestLogicalCNOTPropagatesLogicalState(t *testing.T) {
	// |1̄⟩ ⊗ |0̄⟩ → |1̄⟩ ⊗ |1̄⟩ under transversal XOR, verified on the exact
	// tableau: build both blocks, apply bitwise CNOTs, check Ẑ on block B.
	tb := tableau.New(14, rand.New(rand.NewPCG(71, 72)))
	ca := circuit.New(14)
	blockA := []int{0, 1, 2, 3, 4, 5, 6}
	blockB := []int{7, 8, 9, 10, 11, 12, 13}
	PrepZeroCircuit(ca, blockA)
	PrepZeroCircuit(ca, blockB)
	tableau.Apply(tb, ca)
	// Flip block A to |1̄⟩.
	tb.ApplyPauli(Code().LogicalX[0].Embed(14, blockA))
	for i := range blockA {
		tb.CNOT(blockA[i], blockB[i])
	}
	out, det := tb.MeasurePauli(Code().LogicalZ[0].Embed(14, blockB))
	if !det || !out {
		t.Fatal("transversal XOR did not copy the logical bit")
	}
	outA, detA := tb.MeasurePauli(Code().LogicalZ[0].Embed(14, blockA))
	if !detA || !outA {
		t.Fatal("transversal XOR disturbed the source block")
	}
}

func TestLogicalHOnTableau(t *testing.T) {
	// Bitwise H maps |0̄⟩ to |+̄⟩ (Eq. 11).
	tb := tableau.New(7, rand.New(rand.NewPCG(73, 74)))
	cc := circuit.New(7)
	PrepZeroCircuit(cc, []int{0, 1, 2, 3, 4, 5, 6})
	tableau.Apply(tb, cc)
	for q := 0; q < 7; q++ {
		tb.H(q)
	}
	out, det := tb.MeasurePauli(Code().LogicalX[0])
	if !det || out {
		t.Fatal("bitwise H did not produce |+̄⟩")
	}
}

func TestLogicalSOnTableau(t *testing.T) {
	// P̄ = bitwise P⁻¹ (§4.1): on |+̄⟩ it must produce the +1 eigenstate of
	// Ŷ = i X̂ Ẑ, i.e. S̄|+̄⟩ = |+̄i⟩.
	tb := tableau.New(7, rand.New(rand.NewPCG(75, 76)))
	cc := circuit.New(7)
	PrepZeroCircuit(cc, []int{0, 1, 2, 3, 4, 5, 6})
	tableau.Apply(tb, cc)
	for q := 0; q < 7; q++ {
		tb.H(q)
	}
	for q := 0; q < 7; q++ {
		tb.Sdg(q) // bitwise P⁻¹ implements logical P
	}
	logicalY := Code().LogicalX[0].Mul(Code().LogicalZ[0])
	logicalY.Phase = (logicalY.Phase + 1) % 4 // Y = iXZ
	out, det := tb.MeasurePauli(logicalY)
	if !det || out {
		t.Fatal("bitwise P⁻¹ did not implement the logical phase gate")
	}
}

func TestTransversalCNOTSingleFaultStaysCorrectable(t *testing.T) {
	// Fig. 11's fault-tolerance: any single fault in the transversal XOR,
	// followed by clean recovery on both blocks, leaves no logical error.
	cfg := DefaultConfig()
	cfg.ChargeIdle = false
	dataA := []int{0, 1, 2, 3, 4, 5, 6}
	dataB := []int{7, 8, 9, 10, 11, 12, 13}
	anc := []int{14, 15, 16, 17, 18, 19, 20}
	chk := []int{21, 22, 23, 24, 25, 26, 27}
	for loc := 0; loc < 7; loc++ {
		for fault := 1; fault < 16; fault++ {
			s := frame.New(33, quiet(), rand.New(rand.NewPCG(81, uint64(loc))))
			s.Trigger = loc
			s.TriggerFault = func(s *frame.Sim, qubits []int) {
				f := fault
				for _, q := range qubits {
					if f&1 != 0 {
						s.InjectX(q)
					}
					if f&2 != 0 {
						s.InjectZ(q)
					}
					f >>= 2
				}
			}
			LogicalCNOT(s, dataA, dataB)
			s.Trigger = -1
			SteaneEC(s, dataA, anc, chk, cfg)
			SteaneEC(s, dataB, anc, chk, cfg)
			xa, za := IdealDecode(s, dataA)
			xb, zb := IdealDecode(s, dataB)
			if xa || za || xb || zb {
				t.Fatalf("single fault %d in transversal XOR gate %d caused a logical error", fault, loc)
			}
		}
	}
}

func TestToffoliGadgetExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(91, 92))
	for trial := 0; trial < 25; trial++ {
		thetas := [3]float64{rng.Float64() * 3, rng.Float64() * 3, rng.Float64() * 3}
		if f := ToffoliGadgetFidelity(rng, thetas); f < 1-1e-9 {
			t.Fatalf("trial %d: gadget fidelity %.12f for thetas %v", trial, f, thetas)
		}
	}
}

func TestToffoliGadgetBasisStates(t *testing.T) {
	// All 8 classical inputs through the measurement-based gadget.
	rng := rand.New(rand.NewPCG(93, 94))
	for in := 0; in < 8; in++ {
		s := statevecWithBasis(in)
		rec := ToffoliViaGadget(s, 0, 1, 2, 3, 4, 5, 6, rng)
		_ = rec
		want := in
		if in&3 == 3 {
			want ^= 4
		}
		// Read the ancilla trio.
		x := s.MeasureZ(3, rng)
		y := s.MeasureZ(4, rng)
		z := s.MeasureZ(5, rng)
		got := b2iTest(x) | b2iTest(y)<<1 | b2iTest(z)<<2
		if got != want {
			t.Fatalf("input %03b: got %03b want %03b", in, got, want)
		}
	}
}

// LeakDetect runs the Fig. 15 leakage-detection circuit on data qubit d
// with ancilla anc, one shot at a time: the scalar reference of
// LeakDetectBatch. It returns whether leakage was detected; noise in the
// circuit can misreport either way.
func LeakDetect(s *frame.Sim, d, anc int) bool {
	s.PrepZ(anc)
	s.CNOT(d, anc)
	s.PauliGate(d)
	s.CNOT(d, anc)
	s.PauliGate(d)
	// A healthy data qubit reads 1, the noiseless reference; a leaked one
	// reads 0, a flip.
	flip := s.MeasZ(anc)
	return s.Leaked(d) != flip
}

func TestLeakDetectFindsLeakedQubit(t *testing.T) {
	s := frame.New(3, noise.Params{Leak: 1}, rand.New(rand.NewPCG(95, 96)))
	s.H(0) // leaks immediately under Leak=1
	s.P = noise.Params{}
	if !LeakDetect(s, 0, 2) {
		t.Fatal("leak detection missed a leaked qubit")
	}
	if LeakDetect(s, 1, 2) {
		t.Fatal("leak detection false-positive on a healthy qubit")
	}
}

func TestIdealDecodeClassifiesLogicalErrors(t *testing.T) {
	data, _, _, _, _ := oneBlockLayout()
	s := frame.New(oneBlockWires, quiet(), nil)
	// Apply a full logical X (X on the support of the all-ones codeword).
	lx := Code().LogicalX[0]
	for i := 0; i < 7; i++ {
		if lx.XBits.Get(i) {
			s.InjectX(data[i])
		}
	}
	x, z := IdealDecode(s, data)
	if !x || z {
		t.Fatalf("logical X misclassified: x=%v z=%v", x, z)
	}
}

func statevecWithBasis(in int) *statevec.State {
	s := statevec.NewZero(7)
	for q := 0; q < 3; q++ {
		if in>>uint(q)&1 == 1 {
			s.X(q)
		}
	}
	return s
}

func b2iTest(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestExRecScalesQuadratically(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo scaling test")
	}
	cfg := DefaultConfig()
	lo := ExRecCNOT(MethodSteane, noise.Uniform(2e-4), cfg, 60000, 7)
	hi := ExRecCNOT(MethodSteane, noise.Uniform(8e-4), cfg, 60000, 8)
	rlo, rhi := lo.FailRate(), hi.FailRate()
	if rlo == 0 {
		rlo = 1.0 / float64(lo.Samples)
	}
	ratio := rhi / rlo
	// 4x the error rate should give ≈16x the failure rate; allow slack.
	if ratio < 6 {
		t.Fatalf("failure scaling looks linear: p(8e-4)=%.2e p(2e-4)=%.2e ratio=%.1f", rhi, rlo, ratio)
	}
	// And the absolute rate must be far below first order (~100·ε).
	if rhi > 50*8e-4 {
		t.Fatalf("failure rate %.2e too close to O(ε)", rhi)
	}
}

func TestPauliUnused(t *testing.T) {
	// keep the pauli import honest: logical operators embed correctly.
	p := pauli.MustFromString("XXXXXXX").Embed(14, []int{7, 8, 9, 10, 11, 12, 13})
	if p.N() != 14 || p.Weight() != 7 {
		t.Fatal("embed broken")
	}
}
