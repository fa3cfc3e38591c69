// Package noise defines the stochastic error models of Preskill §6:
// uncorrelated depolarizing errors attached to gates, preparations,
// measurements and idle ("storage") steps, with the pessimistic convention
// that a faulty two-qubit gate damages both qubits. It also provides the
// systematic (coherent) error model used to contrast random-walk error
// accumulation with linear amplitude drift.
package noise

import (
	"fmt"
	"math/rand/v2"
)

// Params holds per-location error probabilities. Each probability is the
// chance that the location is faulty; a faulty location applies a
// uniformly random nontrivial Pauli on its support (the "equally likely
// bit flip / phase flip / both" model of §5).
type Params struct {
	Gate1   float64 // per one-qubit gate
	Gate2   float64 // per two-qubit gate (damages both qubits)
	Prep    float64 // |0⟩ preparation flips to |1⟩
	Meas    float64 // classical readout flips
	Storage float64 // per qubit per idle moment
	Leak    float64 // per gate probability of leakage out of the qubit space

	// Bias is the noise-bias ratio η = p_Z / (p_X + p_Y) of each faulty
	// location's Pauli draw. The zero value means "unbiased" (the uniform
	// §5 model, equivalent to η = 1/2); η → ∞ is pure dephasing. Bias is
	// a shape parameter, not a rate.
	Bias float64
}

// Uniform gives every location (gates, prep, meas, storage) the same
// error probability ε — the simplest version of the paper's model.
func Uniform(eps float64) Params {
	return Params{Gate1: eps, Gate2: eps, Prep: eps, Meas: eps, Storage: eps}
}

// GateOnly models negligible storage error (the assumption behind
// Preskill's Eq. 34 estimate ε_gate,0 ~ 6·10⁻⁴).
func GateOnly(eps float64) Params {
	return Params{Gate1: eps, Gate2: eps, Prep: eps, Meas: eps}
}

// StorageOnly models negligible gate error (Eq. 35, ε_store,0 ~ 6·10⁻⁴).
func StorageOnly(eps float64) Params {
	return Params{Storage: eps}
}

// Validate reports the first malformed field: probabilities outside
// [0,1] or a negative bias ratio.
func (p Params) Validate() error {
	check := func(name string, v float64) error {
		if v < 0 || v > 1 || v != v {
			return fmt.Errorf("noise: %s = %v outside [0,1]", name, v)
		}
		return nil
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Gate1", p.Gate1}, {"Gate2", p.Gate2}, {"Prep", p.Prep},
		{"Meas", p.Meas}, {"Storage", p.Storage}, {"Leak", p.Leak},
	} {
		if err := check(f.name, f.v); err != nil {
			return err
		}
	}
	if p.Bias < 0 || p.Bias != p.Bias {
		return fmt.Errorf("noise: Bias = %v negative", p.Bias)
	}
	return nil
}

// PauliError identifies which Pauli hit a qubit: bit 0 = X component,
// bit 1 = Z component (so 1=X, 2=Z, 3=Y).
type PauliError uint8

// Error components.
const (
	ErrNone PauliError = 0
	ErrX    PauliError = 1
	ErrZ    PauliError = 2
	ErrY    PauliError = 3
)

// Random1 draws a uniformly random nontrivial one-qubit Pauli (X, Y or Z
// with probability 1/3 each), per the equal-likelihood assumption of §5.
func Random1(rng *rand.Rand) PauliError {
	return PauliError(1 + rng.IntN(3))
}

// Random2 draws a uniformly random nontrivial two-qubit Pauli: one of the
// 15 non-identity elements of {I,X,Y,Z}⊗², implementing the pessimistic
// convention that a faulty XOR can damage either or both qubits.
func Random2(rng *rand.Rand) (a, b PauliError) {
	k := 1 + rng.IntN(15)
	return PauliError(k & 3), PauliError(k >> 2)
}

// Draw1 is the one draw of a faulty one-qubit location's Pauli: the
// uniform §5 draw (Random1) when bias is 0, the biased one
// (Random1Biased with η = bias) when it is positive.
func Draw1(rng *rand.Rand, bias float64) PauliError {
	if bias > 0 {
		return Random1Biased(rng, bias)
	}
	return Random1(rng)
}

// Draw2 is Draw1 for a faulty two-qubit location: Random2 when bias is
// 0, Random2Biased with η = bias when it is positive.
func Draw2(rng *rand.Rand, bias float64) (a, b PauliError) {
	if bias > 0 {
		return Random2Biased(rng, bias)
	}
	return Random2(rng)
}

// biasWeights returns the per-component weights (wI, wXY, wZ) of a
// biased Pauli draw with ratio η = p_Z/(p_X+p_Y): r_x = r_y =
// 1/(2(1+η)), r_z = η/(1+η), scaled by 3 so η = 1/2 gives the uniform
// weights (1, 1, 1).
func biasWeights(eta float64) (wXY, wZ float64) {
	return 3 / (2 * (1 + eta)), 3 * eta / (1 + eta)
}

// Random1Biased draws a nontrivial one-qubit Pauli with bias ratio η:
// P(Z)/[P(X)+P(Y)] = η, P(X) = P(Y). η = 1/2 reproduces Random1's
// uniform distribution (over a different stream discipline); η = 0 is
// the unbiased model, which Draw1 sends to Random1 instead.
func Random1Biased(rng *rand.Rand, eta float64) PauliError {
	wXY, wZ := biasWeights(eta)
	u := rng.Float64() * (2*wXY + wZ)
	switch {
	case u < wXY:
		return ErrX
	case u < 2*wXY:
		return ErrY
	default:
		return ErrZ
	}
}

// Random2Biased draws a nontrivial two-qubit Pauli whose 15 outcomes are
// weighted w(a)·w(b) with w(I) = 1, w(X) = w(Y) = wXY, w(Z) = wZ from
// biasWeights(η) — the two-qubit extension of Random1Biased under the
// same pessimistic "either or both qubits damaged" convention. η = 1/2
// gives all 15 outcomes equal weight, matching Random2's distribution.
func Random2Biased(rng *rand.Rand, eta float64) (a, b PauliError) {
	wXY, wZ := biasWeights(eta)
	w := [4]float64{1, wXY, wZ, wXY}
	total := (1 + 2*wXY + wZ) * (1 + 2*wXY + wZ)
	u := rng.Float64() * (total - 1)
	acc := 0.0
	for k := 1; k < 15; k++ {
		acc += w[k&3] * w[k>>2]
		if u < acc {
			return PauliError(k & 3), PauliError(k >> 2)
		}
	}
	return PauliError(15 & 3), PauliError(15 >> 2)
}
