package stream

// Streaming circuit-level erasure and correlated decoding: the sliding
// window's half of internal/spacetime/circuiterasure.go. An erasure-
// harvesting source (surface.NewCircuitSourceErased) reports every leak
// as a located fault; PushErased carries those planes alongside the
// difference layers (Session.BatchErasedFrom drains such a feed, the
// counterpart of Volume.BatchErasedFrom), and every slide decodes the
// lanes they touch with the erased edges seeded into the union-find
// peeling pass.
// Correlated decoders serialize each slide — primal window first, dual
// repriced from the primal correction — so the committed frames stay a
// pure function of the stream for any worker count, and a window taller
// than the stream reproduces the whole-volume decode bit for bit.

import "ftqc/internal/bits"

// PushErased is Push for an erasure-harvesting feed: one round's
// difference layers plus its erasure side information — eraH qubit-major
// (nq planes: lanes whose data qubit is a located fault this round),
// lostX/lostZ check-major (nc planes per sector: lanes whose ancilla
// measurement read as a coin). A decoder built without ErasureAware
// accepts the planes and ignores them — that is the erasure-blind
// control arm at matched marginals. Mixing Push and PushErased on one
// decoder panics.
func (d *Decoder) PushErased(layerX, layerZ, eraH, lostX, lostZ []bits.Vec) {
	nq, nc := d.nq, d.nc
	if d.err != nil {
		return
	}
	if d.finished {
		panic("stream: PushErased after Finish")
	}
	if d.pushMode == pushPlain {
		panic("stream: PushErased on a decoder fed by Push — use one push discipline per stream")
	}
	d.pushMode = pushErased
	if len(eraH) != nq || len(lostX) != nc || len(lostZ) != nc {
		panic("stream: erasure plane count mismatch")
	}
	slot := d.pushRound(layerX, layerZ)
	if slot < 0 || d.eraRing == nil {
		return
	}
	eq := true
	for e := 0; e < nq; e++ {
		d.eraRing[slot*nq+e].CopyFrom(eraH[e])
		eq = eq && eraH[e].Zero()
	}
	d.eraQuiet[slot] = eq
	lqX, lqZ := true, true
	for c := 0; c < nc; c++ {
		d.sx.lostRing[slot*nc+c].CopyFrom(lostX[c])
		lqX = lqX && lostX[c].Zero()
		d.sz.lostRing[slot*nc+c].CopyFrom(lostZ[c])
		lqZ = lqZ && lostZ[c].Zero()
	}
	d.sx.lostQuiet[slot] = lqX
	d.sz.lostQuiet[slot] = lqZ
}
