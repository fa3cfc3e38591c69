package stream

// Streaming circuit-level erasure and correlated decoding: the sliding
// window's half of internal/spacetime/circuiterasure.go. An Erasing
// source (surface.CircuitSource with P.Leak > 0) reports every leak as a
// located fault; PushErased carries those planes alongside the
// difference layers (Session.BatchMemoryFrom drains an Erasing feed
// through it), and every
// slide decodes with each lane's erased edges — read straight off the
// rings by Volume.AppendErased — seeded into the union-find peeling
// pass. A Push round is a round with nothing erased, so the two mix.
// Every decoder decodes its sectors in turn — the primal window through
// to its commit, then the dual, which a correlated decoder reprices from
// the primal correction — so the committed frames stay a pure function
// of the stream for any worker count, and a window taller than the
// stream reproduces the whole-volume decode bit for bit.

import "ftqc/internal/bits"

// PushErased is Push with the round's erasure side information — eraH
// qubit-major (nq planes: lanes whose data qubit is a located fault this
// round), lostX/lostZ check-major (nc planes per sector: lanes whose
// ancilla measurement read as a coin). A decoder built without
// ErasureAware accepts the planes and ignores them — that is the
// erasure-blind control arm at matched marginals.
func (d *Decoder) PushErased(layerX, layerZ, eraH, lostX, lostZ []bits.Vec) {
	if len(eraH) != d.nq || len(lostX) != d.nc || len(lostZ) != d.nc {
		panic("stream: erasure plane count mismatch")
	}
	d.push(layerX, layerZ, eraH, lostX, lostZ)
}

// keepPlanes copies planes into a ring slot's planes, clearing them
// when planes is nil.
func keepPlanes(slot, planes []bits.Vec) {
	for i, p := range slot {
		if planes == nil {
			p.Clear()
			continue
		}
		p.CopyFrom(planes[i])
	}
}
