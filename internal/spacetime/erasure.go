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
// decoder pays growth sweeps only for the unlocated remainder.

// BatchMemoryErased runs `lanes` shots of the erasure-augmented
// noisy-extraction memory experiment and returns the per-lane failure
// masks of the two sectors. With aware = true the per-lane erased edge
// lists (horizontal leakage + vertical lost-measurement edges) feed the
// union-find peeling pass; with aware = false the same histories decode
// blind — the controlled comparison that measures what the side
// information is worth.
func (v *Volume) BatchMemoryErased(p, q, pe, qe float64, lanes int, smp frame.Sampler, aware bool) (failX, failZ bits.Vec) {
	nc, nq := v.nc, v.nq
	src := surface.NewLayerSource(v.code, p, q, lanes, smp)
	layersX := bits.NewVecs(v.nodes, lanes)
	layersZ := bits.NewVecs(v.nodes, lanes)
	eraH := bits.NewVecs(v.horiz, lanes)
	lostX := bits.NewVecs(v.T*nc, lanes)
	lostZ := bits.NewVecs(v.T*nc, lanes)
	for t := 0; t < v.T; t++ {
		src.NextLayersErased(pe, qe,
			layersX[t*nc:(t+1)*nc], layersZ[t*nc:(t+1)*nc],
			eraH[t*nq:(t+1)*nq], lostX[t*nc:(t+1)*nc], lostZ[t*nc:(t+1)*nc])
	}
	src.CloseLayers(layersX[v.T*nc:], layersZ[v.T*nc:])
	pX1 := bits.NewVec(lanes)
	pX2 := bits.NewVec(lanes)
	pZ1 := bits.NewVec(lanes)
	pZ2 := bits.NewVec(lanes)
	src.Windings(pX1, pX2, pZ1, pZ2)
	// Pivot detectors and erasure supports lane-major, then decode each
	// sector with its own lost-measurement planes (leakage is shared).
	syn := bits.NewVecs(lanes, v.nodes)
	var eraLane, lostLane []bits.Vec
	if aware {
		eraLane = bits.NewVecs(lanes, v.horiz)
		bits.TransposePlanes(eraLane, eraH)
		lostLane = bits.NewVecs(lanes, v.T*nc)
	}
	bits.TransposePlanes(syn, layersX)
	if aware {
		bits.TransposePlanes(lostLane, lostX)
	}
	failX = bits.NewVec(lanes)
	v.decodeErasedLanes(syn, eraLane, lostLane, pX1, pX2, failX, false)
	bits.TransposePlanes(syn, layersZ)
	if aware {
		bits.TransposePlanes(lostLane, lostZ)
	}
	failZ = bits.NewVec(lanes)
	v.decodeErasedLanes(syn, eraLane, lostLane, pZ1, pZ2, failZ, true)
	return failX, failZ
}

// decodeErasedLanes is decodeLanes with per-lane erasure supports (era
// and lost may be nil for blind decoding): the same word-aligned
// worker-pool discipline, union-find only.
func (v *Volume) decodeErasedLanes(syn, era, lost []bits.Vec, p1, p2, fails bits.Vec, dual bool) {
	frame.ForEachLaneSpan(len(syn), func(lo, hi int) {
		scr := v.scratch.Get().(*volScratch)
		uf := scr.ufX
		if dual {
			uf = scr.ufZ
		}
		for lane := lo; lane < hi; lane++ {
			scr.defects = syn[lane].AppendSupport(scr.defects[:0])
			l1 := p1.Get(lane)
			l2 := p2.Get(lane)
			if len(scr.defects) > 0 {
				scr.erased = scr.erased[:0]
				if era != nil {
					scr.erased = era[lane].AppendSupport(scr.erased)
					vert := len(scr.erased)
					scr.erased = lost[lane].AppendSupport(scr.erased)
					for k := vert; k < len(scr.erased); k++ {
						scr.erased[k] += v.horiz
					}
				}
				scr.corr.Clear()
				scr.edges = uf.AppendCorrection(scr.edges[:0], scr.defects, scr.erased)
				v.project(scr.edges, scr.corr)
				c1, c2 := v.code.LogicalParity(dual, scr.corr)
				l1 = l1 != c1
				l2 = l2 != c2
			}
			if l1 || l2 {
				fails.Set(lane, true)
			}
		}
		v.scratch.Put(scr)
	})
}

// ErasedMemory runs the erasure-augmented noisy-syndrome memory Monte
// Carlo: data errors at p, measurement flips at q, leakage-erased data
// qubits at pe per round, lost measurements at qe per round, decoded
// erasure-aware over the weighted volume.
func ErasedMemory(l, rounds int, p, q, pe, qe float64, samples int, seed uint64) Result {
	return erasedMemory(l, rounds, p, q, pe, qe, samples, seed, true)
}

// ErasedMemoryBlind is ErasedMemory with the erasure locations withheld
// from the decoder — identical noise, no side information. The gap to
// ErasedMemory is the measured value of location awareness.
func ErasedMemoryBlind(l, rounds int, p, q, pe, qe float64, samples int, seed uint64) Result {
	return erasedMemory(l, rounds, p, q, pe, qe, samples, seed, false)
}

func erasedMemory(l, rounds int, p, q, pe, qe float64, samples int, seed uint64, aware bool) Result {
	wh, wv := Weights(p, q, l, rounds)
	v := NewCodeVolume(toric.Cached(l), rounds, wh, wv)
	fx, fz, fa := frame.CountSectorFailures(samples, seed, func(lanes int, smp frame.Sampler) (bits.Vec, bits.Vec) {
		return v.BatchMemoryErased(p, q, pe, qe, lanes, smp, aware)
	})
	return Result{L: l, T: rounds, P: p, Q: q, Pe: pe, Qe: qe, Samples: samples,
		FailX: fx, FailZ: fz, Failures: fa}
}
