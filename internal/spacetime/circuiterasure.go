package spacetime

// Circuit-level erasure and correlated two-sector decoding.
//
// The extraction circuit produces two kinds of side information beyond
// the syndrome layers:
//
//   - Leakage. frame.BatchSim tracks a leakage flag per qubit; a
//     circuit source with P.Leak > 0 is Erasing: it replaces leaked
//     data qubits with fresh randomized ones at round boundaries and
//     reports every leak as a located fault (NextLayersErased): the
//     horizontal (and mirrored diagonal) edges of a leaked data qubit,
//     the vertical edge of a leaked ancilla. Located faults (AppendErased)
//     seed the union-find peeling pass at full support, through the same
//     streaming drain (internal/stream) the phenomenological erasure
//     source uses.
//
//   - Correlations. Depolarizing faults have Y components (an X error
//     here implies a Z error on the same qubit with probability
//     p_Y/(p_X+p_Y) = 1/2, an LLR of exactly zero) and mid-chain
//     ancilla faults hook onto the late-scheduled data qubits of the
//     other sector. DecodeOptions.Correlated decodes the primal sector
//     first and reprices the dual graph from the committed primal
//     correction (Reprice): every counterpart edge's weight drops to
//     zero, which in the integer-weight union-find is exactly "erased".
//
// Both passes keep the determinism contract: lanes decode independently,
// the primal→dual order is fixed, and the erased edge lists are built in
// canonical ascending edge-id order — so results are bit-identical for
// any GOMAXPROCS or worker count, and the streaming window
// (internal/stream) reproduces the from-scratch per-lane decode
// (Volume.Decode) exactly.

import "ftqc/internal/bits"

// DecodeOptions selects the side-information passes of a decode. The zero value is the independent-sector, erasure-blind
// baseline.
type DecodeOptions struct {
	// ErasureAware feeds the harvested erasure planes into the
	// union-find peeling pass as known fault locations. Without it the
	// same noisy histories decode blind — the controlled comparison
	// that measures what the locations are worth.
	ErasureAware bool
	// Correlated decodes the primal sector first and marks the dual
	// counterparts of its committed correction (the same-qubit,
	// same-layer Y components of horizontal and diagonal edges — see
	// markCounterpart) as erased in the dual decode — the zero-LLR
	// repricing of the depolarizing channel's conditionals.
	Correlated bool
}

// markCounterpart marks, in a dual-sector edge mask, the edge whose
// fault probability is conditioned on a committed primal correction
// edge e — the repricing pass of correlated decoding. Both sectors share
// the volume's edge-id layout, so a horizontal (q, t) maps to the dual
// horizontal of the same id and a diagonal maps to the dual horizontal
// at its own (q, t).
//
// The marking is deliberately minimal: a primal data-qubit correction
// (horizontal or diagonal) reprices only the dual horizontal on the
// same qubit at the same layer — the Y component of the depolarizing
// channel. Vertical (measurement-chain) corrections mark nothing, and
// no diagonal dual edges are marked. The broader sets suggested by the
// circuit model — schedule hooks of ancilla faults, mirrored diagonals
// for either dual reader — were measured to over-erase: they hand the
// peeling pass so many zero-LLR edges that the dual decode gets worse
// than independent, while the same-qubit horizontal alone yields a
// consistent dual-sector improvement across operating points.
func (v *Volume) markCounterpart(e int, mask bits.Vec) {
	switch {
	case e < v.horiz:
		mask.Set(e, true)
	case e < v.diagOff:
		// measurement-chain correction: no dual counterpart marked
	default:
		mask.Set(e-v.diagOff, true)
	}
}

// AppendErased appends to lists[lane], for every lane of one sector, the
// ids of the edges its erasure planes locate: the erased horizontals of
// every layer, then the sector's lost verticals, then — on a circuit
// volume — the diagonals mirroring the erased horizontals (a leaked data
// qubit's fault may straddle the two reads). layer(t) returns layer t's
// planes: the Qubits() erased-data planes and the sector's Checks()
// lost-measurement planes. The classes and the layers go in id order, so
// every list is ascending and duplicate-free — the canonical order the
// peeling pass is seeded in. The lists are read straight off the planes
// (bits.AppendPlaneSupports): one probe per plane word, one append per
// erased edge, nothing pivoted.
func (v *Volume) AppendErased(lists [][]int, layer func(t int) (era, lost []bits.Vec)) {
	for t := 0; t < v.T; t++ {
		era, _ := layer(t)
		bits.AppendPlaneSupports(lists, era, t*v.nq)
	}
	for t := 0; t < v.T; t++ {
		_, lost := layer(t)
		bits.AppendPlaneSupports(lists, lost, v.horiz+t*v.nc)
	}
	if v.WD == 0 {
		return
	}
	for t := 0; t < v.T; t++ {
		era, _ := layer(t)
		bits.AppendPlaneSupports(lists, era, v.diagOff+t*v.nq)
	}
}

// Reprice is the correlated dual merge: it returns the ascending union
// of one lane's dual erased list and the counterparts (markCounterpart)
// of its committed primal correction edges, in erased's storage. mask is
// edge-id scratch of at least the volume's edge count; its prior content
// is discarded.
func (v *Volume) Reprice(erased []int, primal []int32, mask bits.Vec) []int {
	mask.Clear()
	for _, e := range erased {
		mask.Set(e, true)
	}
	for _, e := range primal {
		v.markCounterpart(int(e), mask)
	}
	return mask.AppendSupport(erased[:0])
}
