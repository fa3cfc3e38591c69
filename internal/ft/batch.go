package ft

// Batched gadget drivers: every function here is the bit-parallel twin of
// a scalar gadget in ec.go/ancilla.go/steane.go, replaying exactly the
// same operation sequence on a frame.BatchSim. Data-dependent control
// flow (verification retries, syndrome repetition) becomes masked
// execution: the lanes that take a branch are pushed as the active mask
// and the branch's ops replayed for them alone. Under a lockstep sampler
// the batch drivers are therefore bit-identical, lane by lane, to the
// scalar gadgets — the equivalence suite in batch_test.go enforces this.

import (
	"ftqc/internal/bits"
	"ftqc/internal/frame"
)

// steaneCols[i] is qubit i's column of the Eq. (15) parity check: the
// 3-bit syndrome that names qubit i as the flipped bit. The Hamming code
// is perfect, so the 7 columns enumerate all nonzero syndromes and the
// classical decoder's coset leader for any nonzero syndrome is exactly
// one qubit.
var steaneCols = func() [BlockSize]uint8 {
	var cols [BlockSize]uint8
	for j := 0; j < 3; j++ {
		row := bits.MustFromString(parityH15[j])
		for i := 0; i < BlockSize; i++ {
			if row.Get(i) {
				cols[i] |= 1 << uint(j)
			}
		}
	}
	return cols
}()

// chargeIdleBatch is the batched chargeIdle.
func chargeIdleBatch(b *frame.BatchSim, data []int, cfg Config) {
	if !cfg.ChargeIdle {
		return
	}
	for _, q := range data {
		b.Storage(q)
	}
}

// prepZeroDirectBatch drives the Fig. 3 encoder (|0⟩ input) on all active
// lanes.
func prepZeroDirectBatch(b *frame.BatchSim, block []int) {
	mustBlock(block)
	for _, q := range block {
		b.PrepZ(q)
	}
	for j := 0; j < 3; j++ {
		b.H(block[j])
	}
	for j := 0; j < 3; j++ {
		row := bits.MustFromString(parityH15[j])
		for k := 3; k < 7; k++ {
			if row.Get(k) {
				b.CNOT(block[j], block[k])
			}
		}
	}
}

// hammingSyndromeBits converts 7 measurement planes into the 3 Hamming
// syndrome planes (H · flips, one XOR chain per parity row).
func hammingSyndromeBits(b *frame.BatchSim, flips *[BlockSize]bits.Vec) [3]bits.Vec {
	var syn [3]bits.Vec
	for j, sup := range stabilizerSupports() {
		s := bits.NewVec(b.Lanes())
		for _, i := range sup {
			s.Xor(flips[i])
		}
		syn[j] = s
	}
	return syn
}

// synAny ors the three syndrome planes: the lanes with a nontrivial
// syndrome.
func synAny(syn [3]bits.Vec) bits.Vec {
	nz := syn[0].Clone()
	nz.Or(syn[1])
	nz.Or(syn[2])
	return nz
}

// measureLogicalZBatch performs the destructive logical measurement on
// every active lane: measure the block, Hamming-correct classically,
// return the codeword-parity plane. The classical correction of a nonzero
// syndrome flips exactly one bit (perfect code), so the corrected parity
// is the raw parity XOR the nonzero-syndrome mask.
func measureLogicalZBatch(b *frame.BatchSim, block []int) bits.Vec {
	mustBlock(block)
	var flips [BlockSize]bits.Vec
	for i, q := range block {
		flips[i] = b.MeasZ(q)
	}
	syn := hammingSyndromeBits(b, &flips)
	out := bits.NewVec(b.Lanes())
	for i := range flips {
		out.Xor(flips[i])
	}
	out.Xor(synAny(syn))
	return out
}

// LogicalCNOTBatch applies the transversal XOR between two blocks.
func LogicalCNOTBatch(b *frame.BatchSim, src, dst []int) {
	mustBlock(src)
	mustBlock(dst)
	for i := range src {
		b.CNOT(src[i], dst[i])
	}
}

// verifyZeroRoundBatch performs one §3.3 verification round; the returned
// plane marks the lanes whose round votes "faulty" (logical |1̄⟩ readout).
func verifyZeroRoundBatch(b *frame.BatchSim, anc, chk []int) bits.Vec {
	prepZeroDirectBatch(b, chk)
	LogicalCNOTBatch(b, anc, chk)
	return measureLogicalZBatch(b, chk)
}

// PrepVerifiedZeroBatch prepares a verified |0̄⟩ on anc on every active
// lane (the batched PrepVerifiedZero): two verification rounds per
// attempt; lanes voting faulty twice get the transversal flip repair (or,
// under DiscardSteaneAncilla, rebuild from scratch while attempts
// remain).
func PrepVerifiedZeroBatch(b *frame.BatchSim, anc, chk []int, cfg Config) {
	pending := b.Active()
	for attempts := 1; ; attempts++ {
		b.PushActive(pending)
		prepZeroDirectBatch(b, anc)
		r1 := verifyZeroRoundBatch(b, anc, chk)
		r2 := verifyZeroRoundBatch(b, anc, chk)
		b.PopActive()
		both := r1
		both.And(r2)
		both.And(pending)
		if cfg.DiscardSteaneAncilla && attempts < cfg.MaxPrepAttempts {
			pending = both
			if pending.Zero() {
				return
			}
			continue
		}
		if both.Any() {
			// Flip-to-fix: transversal X with gate noise on the
			// double-|1̄⟩ lanes only.
			b.PushActive(both)
			for _, q := range anc {
				b.PauliGate(q)
				b.FrameX(q)
			}
			b.PopActive()
		}
		return
	}
}

// PrepVerifiedCatBatch prepares the verified 4-qubit cat state of Fig. 8
// on every active lane, retrying failed lanes up to cfg.MaxPrepAttempts.
// It returns the attempts summed over the lanes (each lane counts as
// PrepVerifiedCat does).
func PrepVerifiedCatBatch(b *frame.BatchSim, cat []int, ver int, cfg Config) int {
	if len(cat) != 4 {
		panic("ft: cat state needs 4 wires")
	}
	pending := b.Active()
	total := 0
	for attempts := 1; ; attempts++ {
		total += pending.Weight()
		b.PushActive(pending)
		for _, q := range cat {
			b.PrepZ(q)
		}
		b.H(cat[0])
		b.CNOT(cat[0], cat[1])
		b.CNOT(cat[1], cat[2])
		b.CNOT(cat[2], cat[3])
		b.PrepZ(ver)
		b.CNOT(cat[0], ver)
		b.CNOT(cat[3], ver)
		fail := b.MeasZ(ver)
		b.PopActive()
		pending.And(fail)
		if pending.Zero() || attempts >= cfg.MaxPrepAttempts {
			return total
		}
	}
}

// measureBitSyndromeSteaneBatch extracts the bit-flip syndrome planes on
// every active lane (batched measureBitSyndromeSteane).
func measureBitSyndromeSteaneBatch(b *frame.BatchSim, data, anc, chk []int, cfg Config) [3]bits.Vec {
	PrepVerifiedZeroBatch(b, anc, chk, cfg)
	chargeIdleBatch(b, data, cfg)
	for _, q := range anc {
		b.H(q)
	}
	for i := range data {
		b.CNOT(data[i], anc[i])
	}
	var flips [BlockSize]bits.Vec
	for i, q := range anc {
		flips[i] = b.MeasZ(q)
	}
	return hammingSyndromeBits(b, &flips)
}

// measurePhaseSyndromeSteaneBatch extracts the phase-flip syndrome planes.
func measurePhaseSyndromeSteaneBatch(b *frame.BatchSim, data, anc, chk []int, cfg Config) [3]bits.Vec {
	PrepVerifiedZeroBatch(b, anc, chk, cfg)
	chargeIdleBatch(b, data, cfg)
	for i := range data {
		b.CNOT(anc[i], data[i])
	}
	var flips [BlockSize]bits.Vec
	for i, q := range anc {
		flips[i] = b.MeasX(q)
	}
	return hammingSyndromeBits(b, &flips)
}

// resolveSyndromeBatch applies the §3.4 verification policy per lane,
// remeasuring (via the masked measure callback) only the lanes the scalar
// policy would remeasure, and returns the syndrome planes to act on.
func resolveSyndromeBatch(b *frame.BatchSim, measure func() [3]bits.Vec, cfg Config) [3]bits.Vec {
	s1 := measure()
	switch cfg.Policy {
	case PolicyOnce:
		return s1
	case PolicyRepeatNontrivial:
		nz := synAny(s1)
		if nz.Zero() {
			return s1
		}
		b.PushActive(nz)
		s2 := measure()
		b.PopActive()
		// Keep a lane's syndrome only where the two readings agree;
		// disagreeing lanes do nothing this round.
		diff := bits.NewVec(b.Lanes())
		for j := 0; j < 3; j++ {
			d := s1[j].Clone()
			d.Xor(s2[j])
			diff.Or(d)
		}
		agree := nz
		agree.AndNot(diff)
		for j := 0; j < 3; j++ {
			s1[j].And(agree)
		}
		return s1
	case PolicyUntilAgree:
		var res [3]bits.Vec
		for j := range res {
			res[j] = bits.NewVec(b.Lanes())
		}
		prev := s1
		pending := synAny(prev) // zero-syndrome lanes exit with 0
		for round := 0; round < 4 && pending.Any(); round++ {
			b.PushActive(pending)
			next := measure()
			b.PopActive()
			diff := bits.NewVec(b.Lanes())
			for j := 0; j < 3; j++ {
				d := prev[j].Clone()
				d.Xor(next[j])
				diff.Or(d)
			}
			agree := pending.Clone()
			agree.AndNot(diff)
			for j := 0; j < 3; j++ {
				keep := prev[j].Clone()
				keep.And(agree)
				res[j].Or(keep)
			}
			pending.AndNot(agree)
			// Lanes whose fresh reading is trivial exit next round with
			// "do nothing" (their prev is zero) — drop them now.
			nzNext := synAny(next)
			pending.And(nzNext)
			prev = next
		}
		return res // lanes still pending after 4 rounds: do nothing
	}
	panic("ft: unknown syndrome policy")
}

// correctionMasks converts syndrome planes into per-qubit correction
// masks: qubit i is corrected on the lanes whose syndrome equals column i
// of the parity check (the batched form of DecodeError on a perfect
// code).
func correctionMask(b *frame.BatchSim, syn [3]bits.Vec, col uint8, scratch bits.Vec) bits.Vec {
	started := false
	for j := 0; j < 3; j++ {
		if col&(1<<uint(j)) != 0 {
			if !started {
				scratch.CopyFrom(syn[j])
				started = true
			} else {
				scratch.And(syn[j])
			}
		}
	}
	// Every column is nonzero, so scratch is initialized; now strike the
	// lanes where a zero-column bit is set.
	for j := 0; j < 3; j++ {
		if col&(1<<uint(j)) == 0 {
			scratch.AndNot(syn[j])
		}
	}
	return scratch
}

// applyBitCorrectionBatch applies the frame-tracked X recovery per lane.
func applyBitCorrectionBatch(b *frame.BatchSim, data []int, syn [3]bits.Vec) {
	scratch := bits.NewVec(b.Lanes())
	for i, q := range data {
		b.XorFrameX(q, correctionMask(b, syn, steaneCols[i], scratch))
	}
}

// applyPhaseCorrectionBatch applies the frame-tracked Z recovery per lane.
func applyPhaseCorrectionBatch(b *frame.BatchSim, data []int, syn [3]bits.Vec) {
	scratch := bits.NewVec(b.Lanes())
	for i, q := range data {
		b.XorFrameZ(q, correctionMask(b, syn, steaneCols[i], scratch))
	}
}

// SteaneECBatch performs one complete Fig. 9 recovery on every active
// lane using Steane-method ancillas (batched SteaneEC).
func SteaneECBatch(b *frame.BatchSim, data, anc, chk []int, cfg Config) {
	bitSyn := resolveSyndromeBatch(b, func() [3]bits.Vec {
		return measureBitSyndromeSteaneBatch(b, data, anc, chk, cfg)
	}, cfg)
	applyBitCorrectionBatch(b, data, bitSyn)
	phaseSyn := resolveSyndromeBatch(b, func() [3]bits.Vec {
		return measurePhaseSyndromeSteaneBatch(b, data, anc, chk, cfg)
	}, cfg)
	applyPhaseCorrectionBatch(b, data, phaseSyn)
}

// measureZStabilizerShorBatch measures one Z-type generator with a
// verified Shor-state ancilla on every active lane; the returned plane is
// the syndrome bit (parity of the four cat measurements).
func measureZStabilizerShorBatch(b *frame.BatchSim, data, support, cat []int, ver int, cfg Config) bits.Vec {
	PrepVerifiedCatBatch(b, cat, ver, cfg)
	chargeIdleBatch(b, data, cfg)
	for _, q := range cat {
		b.H(q)
	}
	for i, pos := range support {
		b.CNOT(data[pos], cat[i])
	}
	bit := bits.NewVec(b.Lanes())
	for _, q := range cat {
		bit.Xor(b.MeasZ(q))
	}
	return bit
}

// measureXStabilizerShorBatch measures one X-type generator.
func measureXStabilizerShorBatch(b *frame.BatchSim, data, support, cat []int, ver int, cfg Config) bits.Vec {
	PrepVerifiedCatBatch(b, cat, ver, cfg)
	chargeIdleBatch(b, data, cfg)
	for i, pos := range support {
		b.CNOT(cat[i], data[pos])
	}
	bit := bits.NewVec(b.Lanes())
	for _, q := range cat {
		bit.Xor(b.MeasX(q))
	}
	return bit
}

func measureBitSyndromeShorBatch(b *frame.BatchSim, data, cat []int, ver int, cfg Config) [3]bits.Vec {
	var syn [3]bits.Vec
	for j, sup := range stabilizerSupports() {
		syn[j] = measureZStabilizerShorBatch(b, data, sup, cat, ver, cfg)
	}
	return syn
}

func measurePhaseSyndromeShorBatch(b *frame.BatchSim, data, cat []int, ver int, cfg Config) [3]bits.Vec {
	var syn [3]bits.Vec
	for j, sup := range stabilizerSupports() {
		syn[j] = measureXStabilizerShorBatch(b, data, sup, cat, ver, cfg)
	}
	return syn
}

// ShorECBatch performs one complete Shor-method recovery on every active
// lane.
func ShorECBatch(b *frame.BatchSim, data, cat []int, ver int, cfg Config) {
	bitSyn := resolveSyndromeBatch(b, func() [3]bits.Vec {
		return measureBitSyndromeShorBatch(b, data, cat, ver, cfg)
	}, cfg)
	applyBitCorrectionBatch(b, data, bitSyn)
	phaseSyn := resolveSyndromeBatch(b, func() [3]bits.Vec {
		return measurePhaseSyndromeShorBatch(b, data, cat, ver, cfg)
	}, cfg)
	applyPhaseCorrectionBatch(b, data, phaseSyn)
}

// NaiveECBatch is the batched non-fault-tolerant Fig. 2 recovery.
func NaiveECBatch(b *frame.BatchSim, data []int, anc int, cfg Config) {
	var bitSyn [3]bits.Vec
	for j, sup := range stabilizerSupports() {
		b.PrepZ(anc)
		for _, pos := range sup {
			b.CNOT(data[pos], anc)
		}
		bitSyn[j] = b.MeasZ(anc)
	}
	applyBitCorrectionBatch(b, data, bitSyn)
	var phaseSyn [3]bits.Vec
	for j, sup := range stabilizerSupports() {
		b.PrepZ(anc)
		b.H(anc)
		for _, pos := range sup {
			b.CNOT(anc, data[pos])
		}
		phaseSyn[j] = b.MeasX(anc)
	}
	applyPhaseCorrectionBatch(b, data, phaseSyn)
}

// RunECBatch performs one recovery with the chosen method on every active
// lane (batched RunEC, same wire layout).
func RunECBatch(b *frame.BatchSim, method ECMethod, cfg Config) {
	data, anc, chk, cat, ver := oneBlockLayout()
	switch method {
	case MethodSteane:
		SteaneECBatch(b, data, anc, chk, cfg)
	case MethodShor:
		ShorECBatch(b, data, cat, ver, cfg)
	case MethodNaive:
		NaiveECBatch(b, data, ver, cfg)
	}
}

// IdealDecodeBatch referees the residual frame on a block for every lane:
// the returned planes mark lanes with a logical X and logical Z error.
// It is the batched IdealDecode: sector-wise Hamming decode (one flipped
// qubit per nonzero syndrome) followed by the residual-parity test.
func IdealDecodeBatch(b *frame.BatchSim, block []int) (xerr, zerr bits.Vec) {
	mustBlock(block)
	var px, pz [BlockSize]bits.Vec
	for i, q := range block {
		px[i] = b.PlaneX(q)
		pz[i] = b.PlaneZ(q)
	}
	decodeParity := func(p *[BlockSize]bits.Vec) bits.Vec {
		syn := hammingSyndromeBits(b, p)
		out := bits.NewVec(b.Lanes())
		for i := range p {
			out.Xor(p[i])
		}
		out.Xor(synAny(syn))
		return out
	}
	return decodeParity(&px), decodeParity(&pz)
}
