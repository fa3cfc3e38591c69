package spacetime

import (
	"ftqc/internal/bits"
	"ftqc/internal/frame"
	"ftqc/internal/surface"
	"ftqc/internal/toric"
)

// Erasure in the volume: leakage planes and lost measurement rounds.
//
// Two erasure channels thread into the 3D decode path, both feeding the
// union-find decoder's peeling pass as known fault locations:
//
//   - Data leakage: each qubit edge, each round, leaks with probability
//     pe. A leaked qubit depolarizes — it flips with probability ½ in
//     each sector independently — and its horizontal (space-like) edge
//     at that round is erased in both sector graphs.
//
//   - Lost measurements: each check measurement, each noisy round, is
//     lost with probability qe (a leaked readout). Its observed value is
//     replaced by a fair coin and the vertical (time-like) edge joining
//     that round's difference layers is erased in the affected sector.
//
// Erased edges enter the erasure at full support before any growth, so
// histories dominated by located faults decode by peeling alone; the
// decoder pays growth sweeps only for the unlocated remainder. The
// channels are sampled by surface.NewLayerSourceErased and decode
// through Volume.BatchErasedFrom, the drain the circuit-level erasure
// source shares.

// ErasedMemory runs the erasure-augmented noisy-syndrome memory Monte
// Carlo: data errors at p, measurement flips at q, leakage-erased data
// qubits at pe per round, lost measurements at qe per round, decoded
// erasure-aware over the weighted volume.
func ErasedMemory(l, rounds int, p, q, pe, qe float64, samples int, seed uint64) Result {
	return erasedMemory(l, rounds, p, q, pe, qe, samples, seed, true)
}

// erasedMemory is ErasedMemory's experiment; aware = false is the
// erasure-blind control arm — identical noise, the locations withheld
// from the decoder.
func erasedMemory(l, rounds int, p, q, pe, qe float64, samples int, seed uint64, aware bool) Result {
	wh, wv := Weights(p, q, l, rounds)
	v := NewCodeVolume(toric.Cached(l), rounds, wh, wv)
	fx, fz, fa := frame.CountSectorFailures(samples, seed, func(lanes int, smp frame.Sampler) (bits.Vec, bits.Vec) {
		return v.BatchErasedFrom(surface.NewLayerSourceErased(v.code, p, q, pe, qe, lanes, smp), DecodeOptions{ErasureAware: aware})
	})
	return Result{L: l, T: rounds, P: p, Q: q, Pe: pe, Qe: qe, Samples: samples,
		FailX: fx, FailZ: fz, Failures: fa}
}
