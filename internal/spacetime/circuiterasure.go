package spacetime

// Circuit-level erasure and correlated two-sector decoding.
//
// The extraction circuit produces two kinds of side information beyond
// the syndrome layers:
//
//   - Leakage. frame.BatchSim tracks a leakage flag per qubit; an
//     erasure-harvesting source (surface.NewCircuitSourceErased)
//     replaces leaked data qubits with fresh randomized ones at round
//     boundaries and reports every leak as a located fault: the
//     horizontal (and mirrored diagonal) edges of a leaked data qubit,
//     the vertical edge of a leaked ancilla. Located faults seed the
//     union-find peeling pass at full support, through the same
//     BatchErasedFrom drain the phenomenological erasure source uses.
//
//   - Correlations. Depolarizing faults have Y components (an X error
//     here implies a Z error on the same qubit with probability
//     p_Y/(p_X+p_Y) = 1/2, an LLR of exactly zero) and mid-chain
//     ancilla faults hook onto the late-scheduled data qubits of the
//     other sector. DecodeOptions.Correlated decodes the primal sector
//     first and reprices the dual graph from the committed primal
//     correction: every counterpart edge's weight drops to zero, which
//     in the integer-weight union-find is exactly "erased".
//
// Both passes keep the determinism contract: lanes decode independently
// over word-aligned spans, the primal→dual order is fixed, and the
// erased edge lists are built in canonical ascending edge-id order — so
// results are bit-identical for any GOMAXPROCS or worker count, and the
// streaming window (internal/stream) can reproduce them exactly.

import (
	mbits "math/bits"

	"ftqc/internal/bits"
)

// DecodeOptions selects the side-information passes of an erased-feed
// decode. The zero value is the independent-sector, erasure-blind
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
	// MarkCounterpartEdges) as erased in the dual decode — the zero-LLR
	// repricing of the depolarizing channel's conditionals.
	Correlated bool
}

// MarkCounterpartEdges marks, in a dual-sector edge mask, the edge
// whose fault probability is conditioned on a committed primal
// correction edge e — the repricing pass of correlated decoding. Both
// sectors share the volume's edge-id layout, so a horizontal (q, t)
// maps to the dual horizontal of the same id and a diagonal maps to the
// dual horizontal at its own (q, t).
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
//
// Marking is idempotent (a bit mask), so overlapping counterparts
// collapse; the caller extracts the canonical ascending erased list
// with AppendSupport.
func (v *Volume) MarkCounterpartEdges(e int, mask bits.Vec) {
	switch {
	case e < v.horiz:
		mask.Set(e, true)
	case e < v.diagOff:
		// measurement-chain correction: no dual counterpart marked
	default:
		mask.Set(e-v.diagOff, true)
	}
}

// SetErasedMask sets a sector's erasure bits in an edge-id mask: the
// lane's erased horizontals (era, one bit per (qubit, layer) in layer
// order), their mirrored diagonals (a leaked data qubit's fault may
// straddle the two reads), and the sector's lost verticals. The caller
// clears the mask first.
func (v *Volume) SetErasedMask(mask, era, lost bits.Vec) {
	for i := 0; i < era.Words(); i++ {
		mask.XorWord(i, era.Word(i)) // mask is clear here: XOR = OR
	}
	if v.WD > 0 {
		for i := 0; i < era.Words(); i++ {
			for b := era.Word(i); b != 0; b &= b - 1 {
				mask.Set(v.diagOff+i*64+mbits.TrailingZeros64(b), true)
			}
		}
	}
	for i := 0; i < lost.Words(); i++ {
		for b := lost.Word(i); b != 0; b &= b - 1 {
			mask.Set(v.horiz+i*64+mbits.TrailingZeros64(b), true)
		}
	}
}
