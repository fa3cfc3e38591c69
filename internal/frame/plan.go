package frame

import (
	"ftqc/internal/bits"
	"ftqc/internal/noise"
)

// RoundPlan is a precompiled fault-location program for one syndrome-
// extraction round: a handful of homogeneous op blocks (one storage
// pass, one prep pass per sector, one block per CNOT step, one
// measurement pass per sector) listing every location in execution
// order. BatchSim.RunRound executes it, as one geometric sampler stream
// per block (a quiet block costs a single carry subtraction) or gate by
// gate; RunRound says when each runs and why both give the same sampler
// stream, frames and FaultCount/LocationCount.
//
// Plans are immutable after construction and safe to share across
// BatchSims (surface.CircuitSource builds one per extraction schedule
// and memoizes it there).
type RoundPlan struct {
	ops  []planOp
	locs int
}

const (
	opStorage = iota
	opPrepZ
	opPrepX
	opCNOT
	opMeasZ
	opMeasX
)

// planOp is one homogeneous block of fault locations sharing a gate
// kind (and therefore a fault probability): location i of the block
// acts on qubit qa[i] (and qb[i] for CNOTs), measurement blocks write
// the flip plane of location i into meas[slot[i]].
type planOp struct {
	kind int
	qa   []int32
	qb   []int32 // CNOT targets (control is qa)
	slot []int32 // measurement output slots
}

// NewRoundPlan returns an empty plan; append blocks in execution order
// with the builder methods.
func NewRoundPlan() *RoundPlan { return &RoundPlan{} }

func (pl *RoundPlan) push(kind int, qa, qb, slot []int32) {
	pl.ops = append(pl.ops, planOp{kind: kind, qa: qa, qb: qb, slot: slot})
	pl.locs += len(qa)
}

func clone32(s []int32) []int32 { return append([]int32(nil), s...) }

// Storage appends an idle-storage block over the given qubits.
func (pl *RoundPlan) Storage(qs []int32) { pl.push(opStorage, clone32(qs), nil, nil) }

// PrepZ appends a |0⟩-preparation block over the given qubits.
func (pl *RoundPlan) PrepZ(qs []int32) { pl.push(opPrepZ, clone32(qs), nil, nil) }

// PrepX appends a |+⟩-preparation block over the given qubits.
func (pl *RoundPlan) PrepX(qs []int32) { pl.push(opPrepX, clone32(qs), nil, nil) }

// CNOTStep appends one parallel CNOT step: location i couples control
// ctl[i] to target tgt[i]. All 2·len qubits of a step must be distinct
// (the extraction schedules' step-major order guarantees it) — the fused
// walk propagates every pair before injecting any of the step's faults,
// which is only order-equivalent to the gate path's interleaving when
// the pairs are disjoint.
func (pl *RoundPlan) CNOTStep(ctl, tgt []int32) {
	if len(ctl) != len(tgt) {
		panic("frame: CNOTStep length mismatch")
	}
	pl.push(opCNOT, clone32(ctl), clone32(tgt), nil)
}

// MeasZ appends a Z-basis measurement block: location i reads qubit
// qs[i] into meas[slots[i]].
func (pl *RoundPlan) MeasZ(qs, slots []int32) {
	if len(qs) != len(slots) {
		panic("frame: MeasZ length mismatch")
	}
	pl.push(opMeasZ, clone32(qs), nil, clone32(slots))
}

// MeasX appends an X-basis measurement block.
func (pl *RoundPlan) MeasX(qs, slots []int32) {
	if len(qs) != len(slots) {
		panic("frame: MeasX length mismatch")
	}
	pl.push(opMeasX, clone32(qs), nil, clone32(slots))
}

// Locations returns the number of fault locations the plan executes
// (what one RunRound adds to LocationCount).
func (pl *RoundPlan) Locations() int { return pl.locs }

// RunRound executes the plan across the active lanes, writing
// measurement flip planes into meas (indexed by the plan's slots; each
// plane must be Lanes() bits wide), and reports whether it took the
// fused walk. The simulator picks the executor by what it observes:
// with an AggregateSampler, no leakage or bias, no armed trigger and a
// full active mask it walks one geometric fault stream per block;
// otherwise (the walk draws no leak or biased channels and makes no
// per-location trigger callbacks) it runs each location through its
// gate call — Storage, PrepZ, PrepX, CNOT, MeasZInto, MeasXInto — in
// plan order. Both give the same planes, so only the report and the
// speed tell them apart.
//
// Why the fused walk is bit-identical to the gate path on the same
// sampler state:
//
//   - The aggregate Bernoulli's geometric skip carries across words and
//     across consecutive same-p calls, so N back-to-back per-location
//     calls over a full active mask consume the stream exactly like one
//     walk over the concatenated N·W trial sequence (location-major,
//     lane-minor). Each landing redraws immediately, and the Pauli /
//     flip draws of a faulted location happen after that location's
//     landings and before the next location's — RunRound flushes fault
//     draws at location boundaries inside the walk to match.
//   - Probability edge cases match: p ≤ 0 skips the block without
//     touching the carry, p ≥ 1 faults every lane without touching the
//     carry, and an infinite skip (Float64 returning exactly 0) ends at
//     the boundary of the location that drew it, where the next location
//     redraws as the next Bernoulli call would (nextFaulted).
//   - Propagating all CNOTs of a step before injecting the step's
//     faults is frame-equivalent to the interleaved gate order because
//     a step's pairs are qubit-disjoint.
//   - With Leak == 0 the leakage planes are identically zero (nothing
//     sets them), so the gate path's leak masks, leak coins and
//     measurement coin draws never fire.
func (b *BatchSim) RunRound(pl *RoundPlan, meas []bits.Vec) (fused bool) {
	s, ok := b.smp.(*AggregateSampler)
	if !ok || b.P.Leak > 0 || b.P.Bias > 0 || b.trigger != nil || b.active.Weight() != b.w {
		b.runGates(pl, meas)
		return false
	}
	for i := range pl.ops {
		op := &pl.ops[i]
		switch op.kind {
		case opStorage:
			b.runFaultOp(s, b.P.Storage, op, meas)
		case opPrepZ, opPrepX:
			for _, q := range op.qa {
				b.fx[q].Clear()
				b.fz[q].Clear()
			}
			b.runFaultOp(s, b.P.Prep, op, meas)
		case opCNOT:
			for j, a := range op.qa {
				c := op.qb[j]
				b.fx[c].Xor(b.fx[a])
				b.fz[a].Xor(b.fz[c])
			}
			b.runFaultOp(s, b.P.Gate2, op, meas)
		case opMeasZ:
			for j, q := range op.qa {
				meas[op.slot[j]].CopyFrom(b.fx[q])
			}
			b.runFaultOp(s, b.P.Meas, op, meas)
		case opMeasX:
			for j, q := range op.qa {
				meas[op.slot[j]].CopyFrom(b.fz[q])
			}
			b.runFaultOp(s, b.P.Meas, op, meas)
		}
	}
	b.LocationCount += pl.locs
	return true
}

// runGates is the gate path of RunRound: every location of the plan
// through its gate call, in plan order.
func (b *BatchSim) runGates(pl *RoundPlan, meas []bits.Vec) {
	for i := range pl.ops {
		op := &pl.ops[i]
		for j, q := range op.qa {
			switch op.kind {
			case opStorage:
				b.Storage(int(q))
			case opPrepZ:
				b.PrepZ(int(q))
			case opPrepX:
				b.PrepX(int(q))
			case opCNOT:
				b.CNOT(int(q), int(op.qb[j]))
			case opMeasZ:
				b.MeasZInto(int(q), meas[op.slot[j]])
			case opMeasX:
				b.MeasXInto(int(q), meas[op.slot[j]])
			}
		}
	}
}

// runFaultOp walks one geometric fault stream over the block's
// len(qa)·W trials (location-major, lane-minor — the concatenation of
// the per-location Bernoulli masks), one faulted location at a time,
// drawing that location's Paulis/flips before the walk moves on: the
// gate path's interleaving of geometric and Pauli draws on the shared rng.
func (b *BatchSim) runFaultOp(s *AggregateSampler, p float64, op *planOp, meas []bits.Vec) {
	for loc := 0; ; loc++ {
		if loc, b.laneBuf = s.nextFaulted(p, loc, len(op.qa), b.w, 0, b.laneBuf[:0]); loc == len(op.qa) {
			return
		}
		b.flushFaults(s, op, loc, meas)
	}
}

// flushFaults draws and applies the fault content of one faulted
// location (the lanes in laneBuf, ascending): uniform Paulis for
// storage and CNOT locations, deterministic flips for prep and
// measurement, with the gate path's FaultCount accounting.
func (b *BatchSim) flushFaults(s *AggregateSampler, op *planOp, loc int, meas []bits.Vec) {
	switch op.kind {
	case opStorage:
		q := op.qa[loc]
		for _, lane := range b.laneBuf {
			e := noise.Random1(s.rng)
			w, bit := int(lane)>>6, uint64(1)<<(uint(lane)&63)
			if e&noise.ErrX != 0 {
				b.fx[q].XorWord(w, bit)
			}
			if e&noise.ErrZ != 0 {
				b.fz[q].XorWord(w, bit)
			}
		}
		b.FaultCount += len(b.laneBuf)
	case opPrepZ:
		q := op.qa[loc]
		for _, lane := range b.laneBuf {
			b.fx[q].XorWord(int(lane)>>6, uint64(1)<<(uint(lane)&63))
		}
		b.FaultCount += len(b.laneBuf)
	case opPrepX:
		q := op.qa[loc]
		for _, lane := range b.laneBuf {
			b.fz[q].XorWord(int(lane)>>6, uint64(1)<<(uint(lane)&63))
		}
		b.FaultCount += len(b.laneBuf)
	case opCNOT:
		a, c := op.qa[loc], op.qb[loc]
		for _, lane := range b.laneBuf {
			ea, eb := noise.Random2(s.rng)
			w, bit := int(lane)>>6, uint64(1)<<(uint(lane)&63)
			if ea&noise.ErrX != 0 {
				b.fx[a].XorWord(w, bit)
			}
			if ea&noise.ErrZ != 0 {
				b.fz[a].XorWord(w, bit)
			}
			if eb&noise.ErrX != 0 {
				b.fx[c].XorWord(w, bit)
			}
			if eb&noise.ErrZ != 0 {
				b.fz[c].XorWord(w, bit)
			}
			if ea != 0 {
				b.FaultCount++
			}
			if eb != 0 {
				b.FaultCount++
			}
		}
	case opMeasZ, opMeasX:
		v := meas[op.slot[loc]]
		for _, lane := range b.laneBuf {
			v.XorWord(int(lane)>>6, uint64(1)<<(uint(lane)&63))
		}
		b.FaultCount += len(b.laneBuf)
	}
}
