package surface

import "ftqc/internal/bits"

// SyndromeDiff double-buffers the check-major observed syndromes of the
// two sectors across extraction rounds and emits the consecutive-round
// difference layers — the shared generation machinery of every layer
// feed (the phenomenological and circuit-level sources of any Code
// both defect on cur XOR prev).
type SyndromeDiff struct {
	prevX, prevZ, curX, curZ slab
}

// slab is a run of bit planes and its backing words (bits.NewSlab).
type slab struct {
	v []bits.Vec
	w []uint64
}

func newSlab(count, lanes int) slab {
	v, w := bits.NewSlab(count, lanes)
	return slab{v, w}
}

// NewSyndromeDiff returns zeroed buffers for nc checks by `lanes` shots
// (round −1 observes the trivial syndrome).
func NewSyndromeDiff(nc, lanes int) *SyndromeDiff {
	return &SyndromeDiff{
		prevX: newSlab(nc, lanes),
		prevZ: newSlab(nc, lanes),
		curX:  newSlab(nc, lanes),
		curZ:  newSlab(nc, lanes),
	}
}

// Reset zeroes both generations: NewSyndromeDiff's state.
func (d *SyndromeDiff) Reset() {
	for _, s := range [...]slab{d.prevX, d.prevZ, d.curX, d.curZ} {
		clear(s.w)
	}
}

// CurX returns the current generation's plaquette-observation planes —
// the feed writes this round's observed syndromes here before Emit.
// Emit swaps generations, so re-fetch the slice every round rather than
// caching it.
func (d *SyndromeDiff) CurX() []bits.Vec { return d.curX.v }

// CurZ returns the current generation's star-observation planes.
func (d *SyndromeDiff) CurZ() []bits.Vec { return d.curZ.v }

// Emit writes cur XOR prev into the layer planes (check-major, one
// vector of lane bits per check) and swaps the generations.
func (d *SyndromeDiff) Emit(layerX, layerZ []bits.Vec) {
	bits.XorSlabs(layerX, d.curX.w, d.prevX.w)
	bits.XorSlabs(layerZ, d.curZ.w, d.prevZ.w)
	d.prevX, d.curX = d.curX, d.prevX
	d.prevZ, d.curZ = d.curZ, d.prevZ
}
