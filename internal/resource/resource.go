// Package resource reproduces the machine-sizing estimates of Preskill
// §6: the resources needed to factor a 130-digit (432-bit) number with
// Shor's algorithm on a fault-tolerant machine, for both the concatenated
// 7-qubit architecture (~10⁶ qubits at ε ~ 10⁻⁶) and Steane's block-55
// alternative (~4·10⁵ qubits at ε ~ 10⁻⁵).
package resource

import (
	"fmt"
	"math"

	"ftqc/internal/concat"
)

// FactoringWorkload are the §6 algorithm-level requirements for factoring
// an n-bit number with Shor's algorithm (ref. 47: 5n qubits, 38n³ Toffoli
// gates).
type FactoringWorkload struct {
	Bits          int
	LogicalQubits int
	ToffoliGates  float64
	// Target failure budgets from §6.
	TargetGateError    float64 // per logical Toffoli, ~1e-9
	TargetStorageError float64 // per qubit per gate time, ~1e-12
}

// Factoring returns the workload for an n-bit factoring instance.
func Factoring(bits int) FactoringWorkload {
	n := float64(bits)
	return FactoringWorkload{
		Bits:               bits,
		LogicalQubits:      5 * bits,
		ToffoliGates:       38 * n * n * n,
		TargetGateError:    1e-9,
		TargetStorageError: 1e-12,
	}
}

// Machine is a sized fault-tolerant computer.
type Machine struct {
	Name           string
	PhysicalError  float64
	Levels         int     // concatenation levels (0 for a flat code)
	BlockSize      int     // physical qubits per logical qubit
	DataQubits     int     // block size × logical qubits
	TotalQubits    int     // including ancilla factor
	AncillaFactor  float64 // machine qubits per data qubit
	AchievedErrorL float64 // logical error per gate after coding
}

// SizeConcatenated sizes the paper's concatenated-Steane machine: choose
// the concatenation level so the flow equation (calibrated with
// coefficient A) meets the Toffoli error budget at physical rate eps.
func SizeConcatenated(w FactoringWorkload, eps float64, flow concat.Flow, ancillaFactor float64) (Machine, error) {
	l := flow.LevelsNeeded(eps, w.TargetGateError)
	if l < 0 {
		return Machine{}, fmt.Errorf("resource: ε=%.2g is above the threshold %.2g", eps, flow.Threshold())
	}
	block := concat.BlockSize(l)
	data := block * w.LogicalQubits
	return Machine{
		Name:           "concatenated Steane (§6)",
		PhysicalError:  eps,
		Levels:         l,
		BlockSize:      block,
		DataQubits:     data,
		TotalQubits:    int(math.Ceil(float64(data) * ancillaFactor)),
		AncillaFactor:  ancillaFactor,
		AchievedErrorL: flow.AtLevel(eps, l),
	}, nil
}

// SizeSteane55 sizes the paper's alternative machine (ref. 48): a block
// code of size 55 correcting 5 errors, ~4·10⁵ qubits at gate error 1e-5.
// The achieved logical error follows the ε^(t+1) scaling of a distance-11
// code with a conservative combinatorial prefactor.
func SizeSteane55(w FactoringWorkload, eps float64) Machine {
	const block = 55
	const t = 5
	// Prefactor ~ C(block·locationsPerQubit, t+1); use the paper-level
	// crude counting C(55,6) ≈ 2.9e7 scaled by a per-location constant.
	pref := binom(block, t+1)
	logical := pref * math.Pow(eps, t+1)
	data := block * w.LogicalQubits
	return Machine{
		Name:           "Steane block-55 (ref. 48)",
		PhysicalError:  eps,
		Levels:         0,
		BlockSize:      block,
		DataQubits:     data,
		TotalQubits:    int(math.Ceil(float64(data) * 3.4)),
		AncillaFactor:  3.4,
		AchievedErrorL: logical,
	}
}

func binom(n, k int) float64 {
	r := 1.0
	for i := 0; i < k; i++ {
		r *= float64(n-i) / float64(i+1)
	}
	return r
}

// ExpectedFailures is the expected number of logical errors over the full
// computation: Toffoli count × logical error rate.
func (m Machine) ExpectedFailures(w FactoringWorkload) float64 {
	return w.ToffoliGates * m.AchievedErrorL
}

// String renders the machine like the §6 summary sentences.
func (m Machine) String() string {
	return fmt.Sprintf("%s: ε=%.1e, L=%d, block=%d, data qubits=%d, total qubits=%.2g, logical error=%.1e",
		m.Name, m.PhysicalError, m.Levels, m.BlockSize, m.DataQubits, float64(m.TotalQubits), m.AchievedErrorL)
}
