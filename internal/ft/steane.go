// Package ft implements the fault-tolerant gadgets of Preskill §2–§4 and
// §6 for Steane's 7-qubit code: the encoding circuit (Fig. 3), destructive
// and nondestructive logical measurement (Fig. 4), non-fault-tolerant and
// fault-tolerant syndrome extraction (Figs. 2, 6), Shor cat-state ancillas
// with verification (Figs. 7–8), Steane ancillas with verification and the
// complete recovery circuit (Fig. 9), transversal logical gates (Fig. 11),
// Shor's Toffoli construction (Figs. 12–13) and leakage detection
// (Fig. 15). Gadgets run on the Pauli-frame simulator for Monte Carlo, and
// on the stabilizer tableau for exact logical verification.
package ft

import (
	"sync"

	"ftqc/internal/bits"
	"ftqc/internal/circuit"
	"ftqc/internal/classical"
	"ftqc/internal/code"
	"ftqc/internal/frame"
)

// BlockSize is the number of physical qubits per Steane block.
const BlockSize = 7

// parityH15 is the Hamming parity check in the systematic form of
// Preskill Eq. (15): bits 0–2 carry the data, bits 3–6 the parity checks.
// The encoding circuit of Fig. 3 is written against this form.
var parityH15 = [3]string{
	"1001011",
	"0101101",
	"0011110",
}

var (
	steaneOnce sync.Once
	steaneCode *code.CSS
	hamming15  *classical.Code
)

// Code returns the [[7,1,3]] Steane code in the Eq. (15) qubit labeling
// used by all circuits in this package.
func Code() *code.CSS {
	steaneOnce.Do(func() {
		h := bits.MatrixFromStrings(parityH15[0], parityH15[1], parityH15[2])
		steaneCode = code.MustNewCSS("Steane15[[7,1,3]]", h, h)
		hamming15 = classical.MustNew("Hamming15", h)
	})
	return steaneCode
}

// hamming returns the classical Hamming code in Eq. (15) form.
func hamming() *classical.Code {
	Code()
	return hamming15
}

// EncodeCircuit appends the Fig. 3 encoder to c on the 7 wires of block.
// The unknown input state must sit on block[4]; the remaining six wires
// must be |0⟩. After the circuit the block carries a|0̄⟩+b|1̄⟩.
func EncodeCircuit(c *circuit.Circuit, block []int) {
	mustBlock(block)
	// Two XORs prepare a|0000000⟩ + b|0000111⟩ (0000111 is the weight-3
	// Hamming codeword on bits 4,5,6 in the Eq. (15) labeling).
	c.CNOT(block[4], block[5])
	c.CNOT(block[4], block[6])
	// Superpose the three data bits and switch on the parity bits.
	for j := 0; j < 3; j++ {
		c.H(block[j])
	}
	for j := 0; j < 3; j++ {
		row := bits.MustFromString(parityH15[j])
		for k := 3; k < 7; k++ {
			if row.Get(k) {
				c.CNOT(block[j], block[k])
			}
		}
	}
}

// PrepZeroCircuit appends a |0̄⟩ preparation: fresh |0⟩s followed by the
// Fig. 3 encoder with a |0⟩ input (the two leading XORs act trivially and
// are elided, as in §3.3).
func PrepZeroCircuit(c *circuit.Circuit, block []int) {
	mustBlock(block)
	for _, q := range block {
		c.PrepZ(q)
	}
	for j := 0; j < 3; j++ {
		c.H(block[j])
	}
	for j := 0; j < 3; j++ {
		row := bits.MustFromString(parityH15[j])
		for k := 3; k < 7; k++ {
			if row.Get(k) {
				c.CNOT(block[j], block[k])
			}
		}
	}
}

func mustBlock(block []int) {
	if len(block) != BlockSize {
		panic("ft: block must have exactly 7 wires")
	}
}

// --- transversal logical gates (Fig. 11, §4.1) ---

// LogicalCNOT applies the transversal XOR between two blocks: bitwise
// CNOTs, fault-tolerant because each qubit touches a single gate.
func LogicalCNOT(s *frame.Sim, src, dst []int) {
	mustBlock(src)
	mustBlock(dst)
	for i := range src {
		s.CNOT(src[i], dst[i])
	}
}

// LogicalH applies the logical Hadamard bitwise (Eq. 11).
func LogicalH(s *frame.Sim, block []int) {
	mustBlock(block)
	for _, q := range block {
		s.H(q)
	}
}

// LogicalS applies the logical phase gate: P is implemented bitwise as
// P⁻¹ because odd codewords have weight ≡ 3 (mod 4) (§4.1).
func LogicalS(s *frame.Sim, block []int) {
	mustBlock(block)
	for _, q := range block {
		s.Sdg(q)
	}
}

// --- logical measurement (Fig. 4) ---

// MeasureLogicalZ performs the destructive logical measurement: measure
// every qubit, classically Hamming-correct the outcome, return the parity.
// The return value is the *flip* relative to the noiseless logical value,
// so 'true' means the measurement misreported the encoded bit.
func MeasureLogicalZ(s *frame.Sim, block []int) bool {
	mustBlock(block)
	flips := bits.NewVec(BlockSize)
	for i, q := range block {
		if s.MeasZ(q) {
			flips.Set(i, true)
		}
	}
	return logicalFlipFromBits(flips)
}

// logicalFlipFromBits classically corrects a 7-bit flip pattern and
// reports whether the residual flips the codeword parity (a logical flip).
func logicalFlipFromBits(flips bits.Vec) bool {
	h := hamming()
	corrected := h.Correct(flips)
	// corrected is now a Hamming codeword; odd parity = logical flip.
	return corrected.Weight()%2 == 1
}

// IdealDecode applies a noiseless decoder to the residual frame on a
// block and reports whether the block carries a logical X and/or logical
// Z error. This is the end-of-experiment referee used by the Monte Carlo
// harnesses; it does not disturb the simulation.
func IdealDecode(s *frame.Sim, block []int) (xerr, zerr bool) {
	mustBlock(block)
	x, z := s.FrameOn(block)
	h := hamming()
	// Sector-wise CSS decode, then classify the residual.
	ex, _ := h.DecodeError(h.Syndrome(x))
	ez, _ := h.DecodeError(h.Syndrome(z))
	rx := x.Clone()
	rx.Xor(ex)
	rz := z.Clone()
	rz.Xor(ez)
	// Residuals are in the Hamming code; odd weight = logical operator.
	return rx.Weight()%2 == 1, rz.Weight()%2 == 1
}
