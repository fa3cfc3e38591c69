package spacetime

import (
	"fmt"

	"ftqc/internal/bits"
	"ftqc/internal/frame"
	"ftqc/internal/noise"
	"ftqc/internal/surface"
	"ftqc/internal/toric"
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

// Memory runs the repeated-round noisy-extraction memory experiment of
// any surface.Code under the model m: `rounds` noisy extraction rounds
// decoded over the code's weighted space-time volume (with the diagonal
// edge class for a circuit-level model), fanned out over the CPUs in
// deterministic seed-per-chunk batches through BatchMemoryFrom. The
// model's source states whether the rounds carry erasure planes; a model
// with an erasure channel, or any non-zero opts, decodes with union-find
// only. With q = 0 and rounds = 1 a phenomenological run reduces
// (statistically) to the 2D memory experiment. A malformed model, an
// empty horizon or sample, a decoder the code or options cannot run, or
// decode options on a phenomenological model without an erasure channel
// is an error.
func Memory(code surface.Code, rounds int, m Model, kind toric.DecoderKind, opts DecodeOptions, samples int, seed uint64) (Result, error) {
	if err := m.Validate(); err != nil {
		return Result{}, err
	}
	if err := validateMemory(code, rounds, samples, kind); err != nil {
		return Result{}, err
	}
	erasing, plain := m.pe > 0 || m.qe > 0 || m.P.Leak > 0, opts == (DecodeOptions{})
	if !plain && !erasing && !m.circuit {
		return Result{}, fmt.Errorf("spacetime: decode options on a phenomenological model need an erasure channel (pe or qe > 0)")
	}
	if (erasing || !plain) && kind != toric.DecoderUnionFind {
		return Result{}, fmt.Errorf("spacetime: erasure channels and decode options decode with union-find only")
	}
	wh, wv, wd := m.Weights(code.Distance(), rounds)
	v := NewVolume(code, rounds, wh, wv, wd)
	fx, fz, fa := frame.CountSectorFailures(samples, seed, func(lanes int, smp frame.Sampler) (bits.Vec, bits.Vec) {
		return v.BatchMemoryFrom(m.Source(code, lanes, smp), kind, opts)
	})
	p, q, pe, qe := m.Rates()
	return Result{L: code.Distance(), T: rounds, P: p, Q: q, Pe: pe, Qe: qe, Samples: samples,
		FailX: fx, FailZ: fz, Failures: fa}, nil
}

// SustainedThreshold sweeps the noise family model(x) over the grid
// with T = L rounds for two toric code distances (seeds seed+2i and
// seed+2i+1) and estimates where the failure curves cross — the
// sustained threshold of the memory under that family: below it, the
// larger distance is better; above, worse. Phenomenological(p, p, 0, 0)
// crosses near p = q ≈ 0.027; the circuit-level Circuit(noise.Uniform(ε))
// well below one percent, because every location faults and the CNOTs
// correlate the defects. Returns NaN when the grid shows no crossing,
// plus the measured points either way.
func SustainedThreshold(l1, l2 int, grid []float64, model func(x float64) Model, kind toric.DecoderKind, opts DecodeOptions, samples int, seed uint64) (float64, []ThresholdPoint, error) {
	pts := make([]ThresholdPoint, len(grid))
	small := make([]float64, len(grid))
	large := make([]float64, len(grid))
	for i, x := range grid {
		rs, err := Memory(toric.Cached(l1), l1, model(x), kind, opts, samples, seed+uint64(2*i))
		if err != nil {
			return 0, nil, err
		}
		rl, err := Memory(toric.Cached(l2), l2, model(x), kind, opts, samples, seed+uint64(2*i+1))
		if err != nil {
			return 0, nil, err
		}
		pts[i] = ThresholdPoint{P: x, Small: rs, Large: rl}
		small[i] = rs.FailRate()
		large[i] = rl.FailRate()
	}
	return CrossingEstimate(grid, small, large), pts, nil
}
