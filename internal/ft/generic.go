package ft

import (
	"ftqc/internal/bits"
	"ftqc/internal/code"
	"ftqc/internal/frame"
	"ftqc/internal/pauli"
)

// This file implements the §3.6 generalization of Shor's fault-tolerant
// syndrome measurement to an arbitrary stabilizer code: each generator
// M = ∏ᵢ Pᵢ is measured with a verified cat state whose width equals the
// generator's weight; each cat bit controls a single controlled-Pᵢ into
// the data ("Each ancilla bit is the target of only a single XOR, so that
// multiple phase errors do not feed back into the data"), and the cat is
// read out in the X basis, the outcome parity being the eigenvalue.
// Together with Gottesman's §4.2 universality results this is what makes
// fault-tolerant computation possible "with any stabilizer code".

// GenericEC performs fault-tolerant recovery for an arbitrary stabilizer
// code using generalized Shor ancillas.
type GenericEC struct {
	Code *code.Code
	Dec  *code.Decoder
	Cfg  Config
}

// NewGenericEC builds the gadget; decoderWeight bounds the lookup-decoder
// enumeration ((d−1)/2 for a distance-d code).
func NewGenericEC(c *code.Code, decoderWeight int, cfg Config) *GenericEC {
	return &GenericEC{Code: c, Dec: code.NewDecoder(c, decoderWeight), Cfg: cfg}
}

// prepVerifiedCatN prepares and verifies a width-w cat state on cat[:w]
// (Fig. 8 generalized): chain preparation, then a parity check of the
// first and last bits, retrying on failure. Any single fault that leaves
// a multi-flip suffix on the chain makes those two bits disagree.
func (g *GenericEC) prepVerifiedCatN(s *frame.Sim, cat []int, ver int, w int) {
	attempts := 0
	for {
		attempts++
		for _, q := range cat[:w] {
			s.PrepZ(q)
		}
		s.H(cat[0])
		for i := 0; i+1 < w; i++ {
			s.CNOT(cat[i], cat[i+1])
		}
		if w < 3 {
			return // a Bell pair cannot hide a propagating multi-flip
		}
		s.PrepZ(ver)
		s.CNOT(cat[0], ver)
		s.CNOT(cat[w-1], ver)
		if !s.MeasZ(ver) || attempts >= g.Cfg.MaxPrepAttempts {
			return
		}
	}
}

// MeasureGenerator measures one stabilizer generator fault-tolerantly and
// returns its syndrome bit (true = eigenvalue flipped).
func (g *GenericEC) MeasureGenerator(s *frame.Sim, data []int, gen pauli.Pauli, cat []int, ver int) bool {
	support := make([]int, 0, gen.Weight())
	letters := make([]pauli.Single, 0, gen.Weight())
	for i := 0; i < gen.N(); i++ {
		if l := gen.At(i); l != pauli.I {
			support = append(support, i)
			letters = append(letters, l)
		}
	}
	w := len(support)
	g.prepVerifiedCatN(s, cat, ver, w)
	if g.Cfg.ChargeIdle {
		chargeIdle(s, data, g.Cfg)
	}
	// Controlled-Pᵢ from cat bit j onto the data qubit: CX directly, CZ
	// directly, CY via the Eq. (20)-style basis rotation S·CX·S† on the
	// target.
	for j, pos := range support {
		d := data[pos]
		switch letters[j] {
		case pauli.X:
			s.CNOT(cat[j], d)
		case pauli.Z:
			s.CZ(cat[j], d)
		case pauli.Y:
			s.Sdg(d)
			s.CNOT(cat[j], d)
			s.S(d)
		}
	}
	bit := false
	for j := 0; j < w; j++ {
		if s.MeasX(cat[j]) {
			bit = !bit
		}
	}
	return bit
}

// Syndrome measures every generator once.
func (g *GenericEC) Syndrome(s *frame.Sim, data, cat []int, ver int) bits.Vec {
	syn := bits.NewVec(len(g.Code.Generators))
	for i, gen := range g.Code.Generators {
		if g.MeasureGenerator(s, data, gen, cat, ver) {
			syn.Set(i, true)
		}
	}
	return syn
}

// Recover performs one full fault-tolerant recovery: syndrome extraction
// under the §3.4 repetition policy, then a frame-tracked correction from
// the lookup decoder.
func (g *GenericEC) Recover(s *frame.Sim, data, cat []int, ver int) {
	syn := resolveSyndrome(func() bits.Vec {
		return g.Syndrome(s, data, cat, ver)
	}, g.Cfg)
	if syn.Zero() {
		return
	}
	corr, ok := g.Dec.Correction(syn)
	if !ok {
		return // unrecognized syndrome: do nothing, try again next round
	}
	for i := 0; i < corr.N(); i++ {
		if corr.XBits.Get(i) {
			s.FrameX(data[i])
		}
		if corr.ZBits.Get(i) {
			s.FrameZ(data[i])
		}
	}
}

// IdealDecodeGeneric referees the residual frame on the block against the
// code's lookup decoder, reporting any logical error.
func (g *GenericEC) IdealDecodeGeneric(s *frame.Sim, data []int) bool {
	x, z := s.FrameOn(data)
	err := pauli.NewIdentity(g.Code.N)
	for i := 0; i < g.Code.N; i++ {
		err.XBits.Set(i, x.Get(i))
		err.ZBits.Set(i, z.Get(i))
	}
	_, ok := g.Dec.DecodeError(err)
	return !ok
}
