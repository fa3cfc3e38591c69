// Package spacetime decodes the toric code under noisy syndrome
// extraction — the regime every fault-tolerant architecture actually
// operates in. With perfect measurements a single syndrome snapshot
// pins the defects and decoding is a 2D matching problem (package
// toric); with measurements that lie with probability q, a single
// snapshot is worthless and the experiment instead runs T rounds of
// plaquette/star measurement, takes the XOR *difference* of consecutive
// rounds as its detectors, and decodes over a three-dimensional
// space-time volume closed by one final perfect round.
//
// # The 3D decoding volume
//
// Detector (c, t) is the difference between round t and round t+1 of
// check c, for layers t = 0…T (layer 0 compares against the clean
// initial state, layer T against the perfect closing round). Every
// fault flips exactly two detectors, so faults are the edges of a
// decoder.Graph over (T+1)·L² nodes:
//
//   - a data error entering at round t flips every later measurement of
//     its two adjacent checks, which telescopes to one difference layer:
//     a horizontal (space-like) edge between the two checks at layer
//     t−1;
//   - a measurement error at round t corrupts that round only, flipping
//     layers t−1 and t of its check: a vertical (time-like) edge.
//
// The two edge families carry different likelihoods, so the graph is
// weighted: integer weights proportional to the log-likelihood ratios
// log((1−p)/p) and log((1−q)/q), gcd-normalized (p = q gives the
// unit-weight graph). The union-find decoder grows along the weights
// (an edge of weight w needs 2w half-steps); the blossom matcher prices
// pairs at wH·d₂ + wV·|Δt|. A matched correction projects to the data
// qubits by dropping its time-like edges and XOR-ing the space-like
// ones into the final error estimate; the telescoped detector algebra
// guarantees the projected residual is a closed 2D cycle, so the
// winding detectors decide logical failure exactly as in the 2D
// experiment.
//
// One function builds every such graph in the tree: Volume.buildGraph
// extrudes a code's 2D sector graph into T layers of edges, over either
// a real top layer (a closed volume, NewVolume) or the virtual future
// boundary (a window volume, NewWindowVolume, which the sliding
// window of internal/stream decodes every slide on).
// The edge-id layout lives here and nowhere else: buildGraph assigns the
// ids, CommitEdges folds a correction back into a Pauli frame cut at a
// layer (past the top layer: the plain projection), AppendErased and
// Reprice name the erased edges of the side-information decodes. A Volume is built by whoever decodes on it — an experiment
// for its run, a stream.Window for its life — and nothing in the
// package outlives its caller.
//
// Both error sectors run per shot: bit-flip chains over the primal
// (plaquette) volume and phase-flip chains over the dual (star) volume,
// via toric's dual-lattice indexing.
//
// # Batch layout
//
// Shots advance as bit-planes (one word per 64 shots): per round, data
// error planes accumulate edge-major, measurement-error masks come from
// the sampler (frame.AggregateSampler's geometric skipping makes the q
// draws nearly free), and difference layers are stored check-major.
// The round loop is the LayerSource: it emits one difference layer per
// noisy round (plus the perfect closing layer) in a fixed draw order,
// which the sliding-window decoder in internal/stream drains — whole
// volumes included, as a window that never slides, whose exact close is
// Volume.Match. Volume.Decode is the from-scratch per-lane reference,
// erased lists included, that the streaming fast paths are checked
// against.
//
// One Model value names the noise of an experiment — phenomenological
// or circuit-level, erasure channels included — and the memory
// experiments that run it live in internal/stream: stream.Memory
// through a sliding window, stream.VolumeMemory over the whole volume
// (a window that never slides, or the exact matcher on this package's
// drain). Erasure channels thread into the volume (see Model):
// leaked data qubits depolarize at known horizontal edges, lost
// measurement rounds randomize their readout and erase the
// corresponding time-like edge, and both feed the union-find peeling
// pass as located faults (DecodeOptions.ErasureAware against its
// erasure-blind control arm, the same histories decoded without the
// locations, measures what they are worth).
//
// The sustained-memory threshold (failure curves of growing L with
// T ∝ L crossing at p = q ≈ 3%, located by CrossingEstimate) is the
// headline experiment on these volumes: below the crossing, more rounds
// and bigger lattices make the memory better; above it, worse.
package spacetime
