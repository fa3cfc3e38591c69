package spacetime

import (
	"fmt"

	"ftqc/internal/frame"
	"ftqc/internal/noise"
	"ftqc/internal/surface"
)

// Model names the noise of a memory experiment once: phenomenological
// or circuit-level, erasure channels included. It owns the three
// choices every memory experiment makes from the noise — the layer source
// (Source, which states whether its rounds carry erasure planes), the
// integer edge weights (Weights) and the rates a result reports (Rates).
//
// A phenomenological model flips each data qubit at rate p and each
// check measurement at rate q per round. Two erasure channels ride on
// it, both located faults the union-find peeling pass seeds at full
// support before any growth:
//
//   - data leakage: each qubit, each round, leaks with probability pe.
//     A leaked qubit depolarizes — it flips with probability ½ in each
//     sector independently — and its horizontal (space-like) edge at
//     that round is erased in both sector graphs;
//   - lost measurements: each check measurement, each noisy round, is
//     lost with probability qe. Its value is replaced by a fair coin and
//     the vertical (time-like) edge joining that round's difference
//     layers is erased in the affected sector.
//
// A circuit-level model runs the code's own extraction circuit with
// faults at every location of P, including its Leak channel (leaked
// qubits are harvested as located erasures) and its Bias.
type Model struct {
	circuit      bool
	p, q, pe, qe float64
	P            noise.Params
}

// Phenomenological returns the rate-(p, q) model with data leakage at pe
// and lost measurements at qe per round (pe = qe = 0: no erasure
// channel).
func Phenomenological(p, q, pe, qe float64) Model {
	return Model{p: p, q: q, pe: pe, qe: qe}
}

// Circuit returns the circuit-level model P.
func Circuit(P noise.Params) Model { return Model{circuit: true, P: P} }

// CircuitLevel reports whether m is a circuit-level model.
func (m Model) CircuitLevel() bool { return m.circuit }

// Validate rejects a malformed model: a circuit model's
// noise.Params.Validate, or a phenomenological rate (p, q, pe, qe) that
// is NaN or outside [0, 1].
func (m Model) Validate() error {
	if m.circuit {
		return m.P.Validate()
	}
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"p", m.p}, {"q", m.q}, {"pe", m.pe}, {"qe", m.qe}} {
		if !(f.v >= 0 && f.v <= 1) {
			return fmt.Errorf("spacetime: %s = %v outside [0,1]", f.name, f.v)
		}
	}
	return nil
}

// Weights returns the integer edge weights of a distance-d volume or
// window over `horizon` layers: Weights with wd = 0 (no diagonal class)
// for a phenomenological model, WeightsCircuit for a circuit-level one.
// Erasure and bias channels do not enter them — leakage is decoded as
// located erasure, bias as a prior-mismatch ablation.
func (m Model) Weights(d, horizon int) (wh, wv, wd int) {
	if m.circuit {
		return WeightsCircuit(m.P, d, horizon)
	}
	wh, wv = Weights(m.p, m.q, d, horizon)
	return wh, wv, 0
}

// Source returns the model's layer source over code for `lanes`
// parallel shots drawing from smp: surface.NewLayerSourceErased or
// surface.NewCircuitSource. It is Erasing exactly when the model carries
// an erasure channel (pe or qe > 0, or a circuit model's Leak > 0).
func (m Model) Source(code surface.Code, lanes int, smp frame.Sampler) LayerFeed {
	if m.circuit {
		return surface.NewCircuitSource(code, m.P, lanes, smp)
	}
	return surface.NewLayerSourceErased(code, m.p, m.q, m.pe, m.qe, lanes, smp)
}

// Rates returns the rates a result reports: (p, q, pe, qe) of a
// phenomenological model; the representative Gate2 and Meas rates and
// the Leak rate of a circuit-level one (qe = 0).
func (m Model) Rates() (p, q, pe, qe float64) {
	if m.circuit {
		return m.P.Gate2, m.P.Meas, m.P.Leak, 0
	}
	return m.p, m.q, m.pe, m.qe
}
