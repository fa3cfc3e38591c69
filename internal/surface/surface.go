// Package surface is the code-abstraction layer between stabilizer
// code families and the decoding pipelines: a Code exposes its
// per-sector detector graphs, logical-failure detectors, batched
// syndrome hooks and a circuit-level extraction schedule, and every
// downstream stage — 2D batch memory, space-time volumes, streaming
// windows, the multi-tenant decode server — is written against that
// contract instead of against the torus.
//
// One constructor builds every family: NewCode takes a code's two
// sector graphs, its per-check CNOT orders (the check supports and the
// diagonal reader pairs derive from them) and one or two failure
// detectors per sector. Three families are built with it: the toric
// code (closed boundaries, two failure detectors per sector —
// internal/toric passes its own graphs and keeps the torus metric for
// exact matching), the planar surface code with rough and smooth
// boundaries, and the rotated-lattice variant with roughly half the
// physical qubits per distance. Open-boundary codes ground their
// boundary qubits on a virtual detector node (index Checks()), the
// same grounded-cluster machinery the sliding decode window already
// uses at its open future edge, so the union-find decoder serves every
// family unchanged. Gottesman's survey singles out the planar and
// rotated layouts as the practical substrate for the paper's
// fault-tolerance program; Steane's overhead analysis motivates the
// per-logical-qubit comparisons in cmd/ftqc codes.
package surface

import (
	"sync"

	"ftqc/internal/bits"
	"ftqc/internal/decoder"
	"ftqc/internal/frame"
)

// Code is the detector-graph contract a code family implements to flow
// through the decoding pipelines. Both error sectors are first-class:
// dual=false selects the primal sector (bit-flip chains, plaquette /
// Z-check detectors), dual=true the dual sector (phase-flip chains,
// star / X-check detectors). Implementations are immutable after
// construction and safely shared across goroutines.
type Code interface {
	// CodeName names the code family ("toric", "planar", "rotated").
	CodeName() string
	// Distance returns the code distance (L for the torus).
	Distance() int
	// Qubits returns the number of data qubits.
	Qubits() int
	// Checks returns the number of checks per sector (equal in both
	// sectors for every family here).
	Checks() int
	// Open reports whether the sector graphs have a boundary: one extra
	// virtual node (index Checks()) that absorbs error chains ending on
	// a boundary.
	Open() bool
	// SectorGraph returns the immutable 2D decoding graph of a sector:
	// detectors are nodes, data qubits are edges (edge ids equal qubit
	// ids). Open codes ground single-reader qubits on the boundary node.
	SectorGraph(dual bool) *decoder.Graph
	// LogicalParity returns the sector's failure-detector parities of a
	// syndrome-free residual chain: its GF(2) inner products with the
	// fixed qubit sets that decide logical failure. The torus has two
	// detectors (the winding pair); open codes have one and return false
	// for the second bit.
	LogicalParity(dual bool, errs bits.Vec) (bool, bool)
	// LogicalPlanes accumulates (XOR) the failure-detector parities of
	// qubit-major error planes into p1 and p2 — the batched
	// LogicalParity. Callers zero p1/p2 first; single-detector codes
	// leave p2 untouched.
	LogicalPlanes(dual bool, planes []bits.Vec, p1, p2 bits.Vec)
	// CheckPlanes fills check-major syndrome planes (one vector per
	// check, one bit per lane) from qubit-major error planes.
	CheckPlanes(dual bool, planes, checks []bits.Vec)
	// ExtractionSchedule returns the code's circuit-level syndrome
	// extraction schedule: per-check CNOT orderings for frame.BatchSim
	// and the derived diagonal (hook) edge classes.
	ExtractionSchedule() *Schedule
}

// Schedule is a code's circuit-level extraction schedule. Plaq and
// Star list, per check of the respective sector, the data qubits it
// reads at CNOT steps 0..3 (−1 = idle step, for weight-2/3 boundary
// checks). DiagX and DiagZ are the derived per-qubit reader pairs
// {late, early}: a data fault between the two reads of round t defects
// the late reader at layer t and the early reader at layer t+1 — the
// diagonal edge class of the space-time volume. A boundary-truncated
// entry ({c, −1}: the qubit has a single reader in that sector) puts
// its lone defect at (c, t+1) and the diagonal edge runs to the
// boundary node instead.
//
// A Schedule is immutable once published by its code and used by
// pointer: it memoizes the fused round program compiled from it.
type Schedule struct {
	Plaq, Star   [][4]int
	DiagX, DiagZ [][2]int32

	planOnce sync.Once
	plan     *frame.RoundPlan
}

// ReaderPairs derives the diagonal edge classes of one sector from its
// CNOT orders: for each of the nq data qubits, the checks that read it,
// as {late reader, early reader} by step (or {reader, −1} for qubits
// with a single reader in the sector — the boundary-truncated class).
// It panics if a qubit is never read, read more than twice, or read
// twice at the same step (a schedule conflict).
func ReaderPairs(orders [][4]int, nq int) [][2]int32 {
	pairs := make([][2]int32, nq)
	steps := make([][2]int8, nq)
	count := make([]uint8, nq)
	for c, ord := range orders {
		for s, q := range ord {
			if q < 0 {
				continue
			}
			if count[q] >= 2 {
				panic("surface: schedule reads a data qubit more than twice")
			}
			pairs[q][count[q]] = int32(c)
			steps[q][count[q]] = int8(s)
			count[q]++
		}
	}
	for q := range pairs {
		switch count[q] {
		case 0:
			panic("surface: schedule never reads a data qubit")
		case 1:
			pairs[q][1] = -1
		default:
			if steps[q][0] == steps[q][1] {
				panic("surface: schedule does not read every qubit at distinct steps")
			}
			if steps[q][0] < steps[q][1] {
				pairs[q][0], pairs[q][1] = pairs[q][1], pairs[q][0]
			}
		}
	}
	return pairs
}
