// Package ftqc is a Go reproduction of John Preskill's "Fault-Tolerant
// Quantum Computation" (quant-ph/9712048; "Fault-Tolerant Quantum
// Computers"): stabilizer codes and a hand-rolled CHP tableau simulator,
// the complete set of fault-tolerant recovery and logic gadgets for
// Steane's 7-qubit code (Shor-method and Steane-method ancillas with
// verification, syndrome repetition, transversal gates, the
// measurement-based Toffoli), circuit-level threshold Monte Carlo with
// concatenation flow equations and resource estimates, and the
// topological layer (Kitaev's toric code and nonabelian A₅ fluxon
// logic).
//
// # The batched Monte Carlo engine
//
// All of the package's Monte Carlo (memory experiments, EC failure
// rates, exRec threshold sweeps, ancilla verification, leakage
// detection, toric passive memory) runs on one batched bit-parallel
// Pauli-frame engine (internal/frame's BatchSim): W independent shots
// advance together as bit-planes, one machine word per 64 shots, so
// Clifford frame propagation is word-wide XOR/AND and fault injection is
// the sampling of random lane masks (see internal/frame's package
// documentation for the layout). The RNG-stream discipline is two-level:
//
//   - Production runs draw whole fault masks from one deterministic PCG
//     stream per batch chunk, keyed by (seed, chunk index) — results
//     depend only on the experiment's seed and sample count, never on
//     GOMAXPROCS or scheduling.
//
//   - The equivalence test suites pair every batch lane i with the
//     dedicated stream rand.New(rand.NewPCG(seed, i)) consumed
//     draw-for-draw like the scalar simulator, making batch and scalar
//     runs bit-identical shot for shot. The scalar simulator is that
//     reference, and the engine of the gadget-level experiments E15
//     (transversal logical gates) and E21 (generic stabilizer EC),
//     which run one shot at a time in tests and the root benchmarks;
//     no Monte Carlo experiment runs on it.
//
// Experiment entry points therefore take a seed uint64 rather than a
// *rand.Rand: batched workers derive their independent streams from it.
//
// The toric experiments decode through internal/decoder's scalable
// subsystem: a near-linear weighted-growth union-find decoder (the
// production choice, tractable out to L = 32 and beyond) and a
// polynomial blossom minimum-weight perfect matcher on the complete
// defect graph as the accuracy baseline, each batch chunk decoding its
// own lanes with results identical for any GOMAXPROCS. The torus is one
// more surface code: ToricCode, PlanarCode and RotatedCode return the
// same SurfaceCode type, built by one constructor.
//
// Noisy syndrome extraction (the regime real hardware decodes in) is
// the internal/spacetime subsystem: T measurement rounds whose
// difference syndromes span a weighted 3D space-time decoding volume,
// with time-like edges for measurement errors, erasure channels
// (leaked data qubits, lost measurement rounds) feeding the peeling
// pass, both X and Z logical sectors tracked per shot through the
// dual-lattice indexing. One NoiseModel names the noise of an
// experiment (PhenomenologicalModel or CircuitModel, erasure channels
// included), SpacetimeMemory runs it, and SustainedThreshold sweeps a
// family of models for the crossing of two distances' failure curves.
//
// Circuit-level syndrome extraction (the regime the paper's realistic
// threshold estimates assume) is internal/surface's CircuitSource: the
// actual extraction circuit — ancilla per check, PrepZ/PrepX, four
// CNOTs in the code's schedule, MeasZ/MeasX — runs on the batch frame
// engine with faults at every location. Mid-round CNOT faults produce
// correlated diagonal space-time defect pairs and ancilla hooks
// propagate multi-qubit errors, so the decoding volumes gain a third
// (diagonal) edge class with circuit-derived LLR weights, priced
// exactly by the blossom matcher through a precomputed circuit metric
// (SpacetimeMemory and SustainedThreshold under a CircuitModel — the
// measured crossing sits well below the phenomenological one).
//
// Sustained operation — decoding forever in constant memory — is the
// internal/stream subsystem: difference layers decode through a
// sliding window of W rounds with a commit region (StreamingMemory,
// under the same NoiseModel), corrections finalize into a running Pauli
// frame behind the window, and the decode stage runs as a long-lived
// worker-pool service (batched shots in, corrections out, identical
// for any GOMAXPROCS). A window of 2L rounds reproduces whole-volume
// failure rates; a window covering the whole stream reproduces the
// whole-volume decode over the same weights bit for bit, which is how
// SpacetimeMemory decodes, with either decoder: one drain serves both.
//
// The facade below re-exports the entry points the examples call; the
// implementation, simulators, code constructors and the multi-tenant
// decode server included, lives in the internal/ packages, one per
// subsystem (see DESIGN.md for the full inventory and EXPERIMENTS.md
// for the paper-vs-measured record).
package ftqc

import (
	"ftqc/internal/anyon"
	"ftqc/internal/concat"
	"ftqc/internal/ft"
	"ftqc/internal/group"
	"ftqc/internal/noise"
	"ftqc/internal/resource"
	"ftqc/internal/spacetime"
	"ftqc/internal/stream"
	"ftqc/internal/surface"
	"ftqc/internal/toric"
)

// NoiseParams is the §6 stochastic error model.
type NoiseParams = noise.Params

// UniformNoise gives every fault location probability eps.
func UniformNoise(eps float64) NoiseParams { return noise.Uniform(eps) }

// Fault-tolerance gadgets and experiments (§2–§6).
type (
	// ECConfig selects the §3 verification and repetition policies.
	ECConfig = ft.Config
	// ECMethod picks Steane-method, Shor-method or naive recovery.
	ECMethod = ft.ECMethod
	// Flow is the concatenation flow equation of Eq. (33).
	Flow = concat.Flow
	// Machine is a §6 resource estimate.
	Machine = resource.Machine
)

// Recovery methods.
const (
	MethodSteane = ft.MethodSteane
	MethodShor   = ft.MethodShor
	MethodNaive  = ft.MethodNaive
)

// DefaultECConfig returns the paper's default policies (§3.3–§3.4).
func DefaultECConfig() ECConfig { return ft.DefaultConfig() }

// MemoryExperiment measures the logical failure rate of an encoded qubit
// held for the given number of recovery rounds (Eq. 14's scenario).
func MemoryExperiment(method ECMethod, storage, gadget NoiseParams, cfg ECConfig, rounds, samples int, seed uint64) ft.MemoryResult {
	return ft.MemoryExperiment(method, storage, gadget, cfg, rounds, samples, seed)
}

// PaperFlow returns the Eq. (33) flow with the counting coefficient A=21.
func PaperFlow() Flow { return concat.PaperFlow() }

// FactoringMachines reproduces the §6 resource table for factoring an
// n-bit number: the concatenated-Steane machine at eps=1e-6 and the
// block-55 alternative at 1e-5.
func FactoringMachines(bits int, flowA float64) (concatenated Machine, block55 Machine, err error) {
	w := resource.Factoring(bits)
	concatenated, err = resource.SizeConcatenated(w, 1e-6, concat.Flow{A: flowA}, 3.0)
	block55 = resource.SizeSteane55(w, 1e-5)
	return concatenated, block55, err
}

// Topological layer (§7).
type (
	// ToricDecoder selects the toric decoding strategy.
	ToricDecoder = toric.DecoderKind
	// A5Encoding is the nonabelian fluxon encoding of §7.4.
	A5Encoding = anyon.A5Encoding
	// FluxRegister is a register of nonabelian flux pairs.
	FluxRegister = anyon.Register
	// PermGroup is a finite permutation group.
	PermGroup = group.Group
)

// Toric decoders (see internal/decoder for the algorithms).
const (
	// ToricDecoderExact is the polynomial (blossom) exact minimum-weight
	// matcher — the accuracy baseline, with no defect-count cap.
	ToricDecoderExact = toric.DecoderExact
	// ToricDecoderUnionFind is the near-linear union-find decoder — the
	// production decoder that makes L = 16–32 experiments tractable.
	ToricDecoderUnionFind = toric.DecoderUnionFind
)

// ToricMemory runs the passive-memory Monte Carlo on the L×L torus at
// flip probability p under the decoder dec (ToricDecoderUnionFind is
// the production choice). The seed fully determines the result:
// batched workers derive their independent PCG streams from it. A
// lattice under 2×2, a rate that is NaN or outside [0, 1], an empty
// sample or a decoder kind that names no decoder is an error.
func ToricMemory(l int, p float64, dec ToricDecoder, samples int, seed uint64) (toric.MemoryResult, error) {
	return toric.MemoryExperiment(l, p, dec, samples, seed)
}

// NewAnyonComputer returns the A₅ flux-pair encoding and a register of k
// pairs initialized to logical 0.
func NewAnyonComputer(k int) (A5Encoding, *FluxRegister) {
	enc := anyon.NewA5Encoding()
	return enc, anyon.NewRegister(enc.G, k, enc.U0)
}

// Code-agnostic surface codes (internal/surface): planar and rotated
// open-boundary codes beside the torus, all behind one detector-graph
// contract that every decoding pipeline (2D, space-time volume,
// streaming window, decode server) accepts.
type (
	// SurfaceCode is the code-agnostic detector-graph contract: sector
	// graphs, failure detectors, syndrome hooks, extraction schedule.
	SurfaceCode = surface.Code
	// SurfaceMemoryResult is one 2D surface-code memory measurement.
	SurfaceMemoryResult = surface.MemoryResult
)

// PlanarCode returns the distance-d planar surface code (rough top and
// bottom, smooth left and right; d² + (d−1)² data qubits).
func PlanarCode(d int) SurfaceCode { return surface.Planar(d) }

// RotatedCode returns the distance-d rotated surface code (d² data
// qubits — the minimal-overhead surface code; d odd).
func RotatedCode(d int) SurfaceCode { return surface.Rotated(d) }

// ToricCode returns Kitaev's code on the L×L torus (L ≥ 2) under the
// same contract.
func ToricCode(l int) SurfaceCode { return toric.Cached(l) }

// SurfaceMemory runs the 2D passive-memory Monte Carlo for any surface
// code at flip probability p (per qubit, independently in both
// sectors) with the union-find production decoder. A nil code, a rate
// that is NaN or outside [0, 1], or an empty sample is an error.
func SurfaceMemory(c SurfaceCode, p float64, samples int, seed uint64) (SurfaceMemoryResult, error) {
	return surface.MemoryExperimentXZ(c, p, samples, seed)
}

// Space-time decoding (noisy syndrome extraction).
type (
	// SpacetimeVolume is the weighted 3D decoding volume of a surface
	// code under repeated noisy syndrome extraction.
	SpacetimeVolume = spacetime.Volume
	// SpacetimeResult is one noisy-extraction memory measurement, whole
	// volume or streaming, with per-sector (bit-flip and phase-flip)
	// failure counts.
	SpacetimeResult = stream.Result
	// ThresholdPoint is one grid point of a sustained-threshold sweep.
	ThresholdPoint = stream.ThresholdPoint
)

// Noise models and decode options of the memory experiments.
type (
	// NoiseModel names the noise of a memory experiment once:
	// phenomenological or circuit-level, erasure channels included. It
	// picks the syndrome source, the decoding-graph weights and the
	// rates a result reports.
	NoiseModel = spacetime.Model
	// DecodeOptions selects the side-information passes of a decode:
	// ErasureAware feeds located erasures (leaked qubits, lost
	// measurements) into the peeling pass, Correlated reprices the dual
	// sector from the committed primal correction. The zero value is the
	// independent-sector, erasure-blind baseline.
	DecodeOptions = spacetime.DecodeOptions
)

// PhenomenologicalModel is the rate-(p, q) model — data errors at p and
// measurement flips at q per round — with leaked data qubits (which
// depolarize at a known location) at pe and lost measurements (replaced
// by a coin, their time-like edge erased) at qe per round.
func PhenomenologicalModel(p, q, pe, qe float64) NoiseModel {
	return spacetime.Phenomenological(p, q, pe, qe)
}

// CircuitModel is the circuit-level model P (UniformNoise(ε): every
// preparation, CNOT, measurement and idle step faults with probability
// ε): the code's own extraction circuit runs with faults at every
// location. CNOT faults between a data qubit's two reads produce
// correlated diagonal defect pairs and ancilla hooks propagate
// multi-qubit errors; P.Leak is harvested as located erasures each
// round, P.Bias skews each fault's Pauli draw.
func CircuitModel(P NoiseParams) NoiseModel { return spacetime.Circuit(P) }

// SpacetimeMemory runs the repeated-round noisy-extraction memory of any
// surface code under the model m, decoded over the code's weighted 3D
// space-time volume (open-boundary detectors ground on the virtual
// node; a circuit model adds the diagonal edge class). Both logical
// sectors are tracked per shot. Both decoders run on the streaming
// drain through a window that never slides (W = max(rounds, 2)).
// ToricDecoderUnionFind is the production decoder; a one-round circuit
// run prices its weights over two layers, dearer than one under
// measurement-dominated noise. ToricDecoderExact closes the volume with
// the weighted blossom matcher, its weights priced over rounds, on the
// torus only and without erasure channels or decode options — a run it
// cannot price is an error, as are a malformed model (a rate that is
// NaN or outside [0, 1]), decode options on a phenomenological model
// without an erasure channel, an empty horizon and an empty sample.
func SpacetimeMemory(c SurfaceCode, rounds int, m NoiseModel, dec ToricDecoder, opts DecodeOptions, samples int, seed uint64) (SpacetimeResult, error) {
	return stream.VolumeMemory(c, rounds, m, dec, opts, samples, seed)
}

// SustainedThreshold sweeps the model family model(x) with rounds = L
// for two toric code distances under the decode options and returns the
// crossing of their failure curves — the sustained threshold of the
// noisy-extraction memory (near p = q ≈ 0.027 phenomenologically, well
// below one percent at circuit level) — along with the measured points
// (NaN if the grid shows no crossing).
func SustainedThreshold(l1, l2 int, grid []float64, model func(x float64) NoiseModel, opts DecodeOptions, samples int, seed uint64) (float64, []ThresholdPoint, error) {
	return stream.SustainedThreshold(l1, l2, grid, func(l int, x float64, seed uint64) (SpacetimeResult, error) {
		return stream.VolumeMemory(toric.Cached(l), l, model(x), toric.DecoderUnionFind, opts, samples, seed)
	}, seed)
}

// StreamingMemory runs the memory of any surface code under the model
// m through the sliding-window streaming decoder: `window` buffered
// rounds per decode, `commit` rounds finalized per slide (0, 0 picks the
// defaults W = 2d, commit d). Syndrome layers decode as they arrive,
// corrections commit behind the window, and per-lane memory stays
// O(d²·W) no matter how many rounds stream past; erasure planes ride
// the difference layers round by round, and correlated runs reprice the
// dual window each slide. A window that never slides reproduces
// SpacetimeMemory bit for bit when both decode over the same weights:
// W ≥ rounds for a phenomenological model, W = rounds for a circuit
// one, whose weights take the window as their horizon. Invalid window
// shapes (commit not in [1, window-1], window < 2, ...), a malformed
// model, and decode options on a phenomenological model without an
// erasure channel are reported as errors.
func StreamingMemory(c SurfaceCode, rounds int, m NoiseModel, window, commit int, opts DecodeOptions, samples int, seed uint64) (SpacetimeResult, error) {
	return stream.Memory(c, rounds, m, window, commit, opts, samples, seed)
}

// StreamingSustainedThreshold sweeps p = q with T = 4L rounds through
// W = 2L sliding windows for two code distances — the sustained
// threshold measured in genuine streaming operation. An empty sample
// is an error.
func StreamingSustainedThreshold(l1, l2 int, grid []float64, samples int, seed uint64) (float64, []ThresholdPoint, error) {
	return stream.SustainedThreshold(l1, l2, grid, func(l int, p float64, seed uint64) (SpacetimeResult, error) {
		w, c := stream.DefaultWindow(l)
		return stream.Memory(toric.Cached(l), 4*l, spacetime.Phenomenological(p, p, 0, 0), w, c, DecodeOptions{}, samples, seed)
	}, seed)
}
