// The scalar Pauli-frame simulator: one shot at a time. See doc.go for
// the package overview and batch.go for the bit-parallel engine.

package frame

import (
	"math/rand/v2"

	"ftqc/internal/bits"
	"ftqc/internal/noise"
)

// Sim is the Pauli-frame state of n qubits.
type Sim struct {
	n      int
	fx, fz bits.Vec // current error frame
	leaked bits.Vec // leakage flags (§6 leakage model)
	P      noise.Params
	rng    *rand.Rand

	// Faults injected so far (for diagnostics and tests).
	FaultCount int

	// LocationCount numbers every fault location as it executes. When it
	// reaches Trigger, TriggerFault runs with the qubits of that
	// location — deterministic single-fault injection for the exhaustive
	// fault-tolerance tests. Trigger < 0 disables scripting.
	LocationCount int
	Trigger       int
	TriggerFault  func(s *Sim, qubits []int)
}

// New returns a clean frame simulator.
func New(n int, p noise.Params, rng *rand.Rand) *Sim {
	if rng == nil {
		rng = rand.New(rand.NewPCG(2, 3))
	}
	return &Sim{n: n, fx: bits.NewVec(n), fz: bits.NewVec(n), leaked: bits.NewVec(n), P: p, rng: rng, Trigger: -1}
}

// point marks a fault location, firing the scripted fault if armed.
func (s *Sim) point(qubits ...int) {
	if s.LocationCount == s.Trigger && s.TriggerFault != nil {
		s.TriggerFault(s, qubits)
	}
	s.LocationCount++
}

// XError reports whether qubit q currently carries an X (or Y) error.
func (s *Sim) XError(q int) bool { return s.fx.Get(q) }

// ZError reports whether qubit q currently carries a Z (or Y) error.
func (s *Sim) ZError(q int) bool { return s.fz.Get(q) }

// Leaked reports whether qubit q has leaked.
func (s *Sim) Leaked(q int) bool { return s.leaked.Get(q) }

// InjectX deterministically adds an X error to the frame (for tests and
// deterministic fault-injection experiments).
func (s *Sim) InjectX(q int) { s.fx.Flip(q) }

// InjectZ deterministically adds a Z error to the frame.
func (s *Sim) InjectZ(q int) { s.fz.Flip(q) }

// inject applies a sampled Pauli error.
func (s *Sim) inject(q int, e noise.PauliError) {
	if e&noise.ErrX != 0 {
		s.fx.Flip(q)
	}
	if e&noise.ErrZ != 0 {
		s.fz.Flip(q)
	}
	if e != noise.ErrNone {
		s.FaultCount++
	}
}

func (s *Sim) maybeLeak(q int) {
	if s.P.Leak > 0 && s.rng.Float64() < s.P.Leak {
		s.leaked.Set(q, true)
	}
}

// --- gates (frame conjugation + noise) ---

// H applies a Hadamard: X ↔ Z in the frame.
func (s *Sim) H(q int) {
	s.point(q)
	if !s.leaked.Get(q) {
		x, z := s.fx.Get(q), s.fz.Get(q)
		s.fx.Set(q, z)
		s.fz.Set(q, x)
	}
	if s.rng.Float64() < s.P.Gate1 {
		s.inject(q, noise.Draw1(s.rng, s.P.Bias))
	}
	s.maybeLeak(q)
}

// S applies the phase gate: X → Y (adds a Z component to X errors).
func (s *Sim) S(q int) {
	s.point(q)
	if !s.leaked.Get(q) && s.fx.Get(q) {
		s.fz.Flip(q)
	}
	if s.rng.Float64() < s.P.Gate1 {
		s.inject(q, noise.Draw1(s.rng, s.P.Bias))
	}
	s.maybeLeak(q)
}

// Sdg applies the inverse phase gate (same frame action as S).
func (s *Sim) Sdg(q int) { s.S(q) }

// PauliGate applies a deliberate X/Y/Z gate. Paulis commute with the frame
// up to phase, so only the noise matters.
func (s *Sim) PauliGate(q int) {
	s.point(q)
	if s.rng.Float64() < s.P.Gate1 {
		s.inject(q, noise.Draw1(s.rng, s.P.Bias))
	}
	s.maybeLeak(q)
}

// CNOT applies an XOR gate: X errors propagate forward (control→target),
// Z errors backward (target→control) — the two mechanisms of §3.1.
func (s *Sim) CNOT(a, b int) {
	s.point(a, b)
	if !s.leaked.Get(a) && !s.leaked.Get(b) {
		if s.fx.Get(a) {
			s.fx.Flip(b)
		}
		if s.fz.Get(b) {
			s.fz.Flip(a)
		}
	}
	if s.rng.Float64() < s.P.Gate2 {
		ea, eb := noise.Draw2(s.rng, s.P.Bias)
		s.inject(a, ea)
		s.inject(b, eb)
	}
	s.maybeLeak(a)
	s.maybeLeak(b)
}

// CZ applies a controlled-Z: X errors on either side deposit Z on the
// other.
func (s *Sim) CZ(a, b int) {
	s.point(a, b)
	if !s.leaked.Get(a) && !s.leaked.Get(b) {
		if s.fx.Get(a) {
			s.fz.Flip(b)
		}
		if s.fx.Get(b) {
			s.fz.Flip(a)
		}
	}
	if s.rng.Float64() < s.P.Gate2 {
		ea, eb := noise.Draw2(s.rng, s.P.Bias)
		s.inject(a, ea)
		s.inject(b, eb)
	}
	s.maybeLeak(a)
	s.maybeLeak(b)
}

// PrepZ resets the qubit to |0⟩, clearing its frame and leakage; a faulty
// preparation leaves an X error (the state |1⟩).
func (s *Sim) PrepZ(q int) {
	s.fx.Set(q, false)
	s.fz.Set(q, false)
	s.leaked.Set(q, false)
	s.point(q)
	if s.rng.Float64() < s.P.Prep {
		s.fx.Set(q, true)
		s.FaultCount++
	}
}

// PrepX resets the qubit to |+⟩, clearing its frame and leakage; a faulty
// preparation leaves a Z error (the state |−⟩).
func (s *Sim) PrepX(q int) {
	s.fx.Set(q, false)
	s.fz.Set(q, false)
	s.leaked.Set(q, false)
	s.point(q)
	if s.rng.Float64() < s.P.Prep {
		s.fz.Set(q, true)
		s.FaultCount++
	}
}

// MeasZ destructively measures the qubit in the computational basis and
// returns whether the outcome is flipped relative to the noiseless
// reference. A leaked qubit yields a coin flip (its reading carries no
// information about the encoded data).
func (s *Sim) MeasZ(q int) bool {
	s.point(q)
	flip := s.fx.Get(q)
	if s.leaked.Get(q) {
		flip = s.rng.IntN(2) == 1
	}
	if s.rng.Float64() < s.P.Meas {
		flip = !flip
		s.FaultCount++
	}
	return flip
}

// MeasX measures in the Hadamard basis: the flip bit reads the Z frame.
func (s *Sim) MeasX(q int) bool {
	s.point(q)
	flip := s.fz.Get(q)
	if s.leaked.Get(q) {
		flip = s.rng.IntN(2) == 1
	}
	if s.rng.Float64() < s.P.Meas {
		flip = !flip
		s.FaultCount++
	}
	return flip
}

// Storage applies one idle step of storage noise to qubit q.
func (s *Sim) Storage(q int) {
	s.point(q)
	if s.rng.Float64() < s.P.Storage {
		s.inject(q, noise.Draw1(s.rng, s.P.Bias))
	}
}

// FrameX/FrameZ corrections: classical Pauli-frame updates, applied
// noiselessly (recovery operations tracked in software, as in
// Knill-style Pauli-frame error correction).

// FrameX toggles an X correction on qubit q.
func (s *Sim) FrameX(q int) { s.fx.Flip(q) }

// FrameZ toggles a Z correction on qubit q.
func (s *Sim) FrameZ(q int) { s.fz.Flip(q) }

// ReplaceLeaked swaps a leaked qubit for a fresh |0⟩. Relative to the
// encoded data the fresh qubit is an erasure: its frame is randomized,
// to be repaired by the next round of error correction (§6, Fig. 15).
func (s *Sim) ReplaceLeaked(q int) {
	s.leaked.Set(q, false)
	s.fx.Set(q, s.rng.IntN(2) == 1)
	s.fz.Set(q, s.rng.IntN(2) == 1)
}

// FrameOn returns the frame restricted to the given qubits as (x, z) bit
// vectors — the residual error pattern on a code block.
func (s *Sim) FrameOn(qubits []int) (x, z bits.Vec) {
	x = bits.NewVec(len(qubits))
	z = bits.NewVec(len(qubits))
	for i, q := range qubits {
		x.Set(i, s.fx.Get(q))
		z.Set(i, s.fz.Get(q))
	}
	return x, z
}
