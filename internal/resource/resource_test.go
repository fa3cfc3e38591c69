package resource

import (
	"testing"

	"ftqc/internal/concat"
)

func TestFactoringWorkload432(t *testing.T) {
	// §6: a 432-bit number needs 5·432 = 2160 logical qubits and
	// 38·432³ ≈ 3·10⁹ Toffoli gates.
	w := Factoring(432)
	if w.LogicalQubits != 2160 {
		t.Fatalf("logical qubits %d, want 2160", w.LogicalQubits)
	}
	if w.ToffoliGates < 3.0e9 || w.ToffoliGates > 3.1e9 {
		t.Fatalf("Toffoli count %.3g, want ≈3.06e9", w.ToffoliGates)
	}
}

func TestConcatenatedMachineMatchesPaper(t *testing.T) {
	// §6's design point: ε ~ 1e-6 with 3 levels of concatenation, block
	// 343, total qubits of order 10⁶. The paper's own flow analysis (ref.
	// 23) used a much larger effective A than Eq. 33's 21; A ≈ 1e4 gives
	// 3 levels at 1e-6.
	w := Factoring(432)
	flow := concat.Flow{A: 1e4}
	m, err := SizeConcatenated(w, 1e-6, flow, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Levels != 2 && m.Levels != 3 {
		t.Fatalf("levels = %d, expected 2-3 at ε=1e-6", m.Levels)
	}
	if m.BlockSize > 343 {
		t.Fatalf("block size %d exceeds paper's 343", m.BlockSize)
	}
	if m.TotalQubits < 2e5 || m.TotalQubits > 5e6 {
		t.Fatalf("total qubits %d, want order 10⁶", m.TotalQubits)
	}
	if m.AchievedErrorL > w.TargetGateError {
		t.Fatal("machine must meet the 1e-9 Toffoli budget")
	}
}

func TestAboveThresholdRejected(t *testing.T) {
	w := Factoring(432)
	if _, err := SizeConcatenated(w, 0.2, concat.PaperFlow(), 3); err == nil {
		t.Fatal("sizing must fail above threshold")
	}
}

func TestSteane55Machine(t *testing.T) {
	// Ref. 48: block 55 correcting 5 errors, ~4·10⁵ qubits at ε = 1e-5.
	w := Factoring(432)
	m := SizeSteane55(w, 1e-5)
	if m.BlockSize != 55 {
		t.Fatalf("block %d", m.BlockSize)
	}
	if m.TotalQubits < 3e5 || m.TotalQubits > 5e5 {
		t.Fatalf("total qubits %d, want ≈4·10⁵", m.TotalQubits)
	}
	// At 1e-5 the distance-11 code must beat the 1e-9 budget comfortably.
	if m.AchievedErrorL > w.TargetGateError {
		t.Fatalf("block-55 machine misses budget: %.2e", m.AchievedErrorL)
	}
	// And the whole computation should have ≲ O(1) expected failures.
	if m.ExpectedFailures(w) > 1 {
		t.Fatalf("expected failures %.2g > 1", m.ExpectedFailures(w))
	}
}

func TestBinom(t *testing.T) {
	if binom(7, 2) != 21 {
		t.Fatalf("binom(7,2)=%v", binom(7, 2))
	}
	if binom(55, 6) < 2.8e7 || binom(55, 6) > 3e7 {
		t.Fatalf("binom(55,6)=%v", binom(55, 6))
	}
}
