package frame

import (
	"math"
	mbits "math/bits"
	"math/rand/v2"

	"ftqc/internal/bits"
	"ftqc/internal/noise"
)

// Sampler supplies the randomness of a batch simulator as lane masks.
// Every method is restricted to the lanes of `active` (or `faults`): bits
// outside the mask are always written as 0.
//
// Two implementations exist with different contracts:
//
//   - LockstepSampler owns one PCG stream per lane and consumes it
//     draw-for-draw exactly like the scalar Sim consumes its stream, so a
//     BatchSim over a lockstep sampler is bit-identical, shot for shot, to
//     W scalar simulations run from the paired streams. It exists to prove
//     the batch engine correct.
//
//   - AggregateSampler owns a single stream and samples whole 64-lane
//     fault masks at once via geometric skipping (one draw typically
//     covers a full word of lanes). It is the production sampler: the same
//     distributions, a different (but deterministic) stream discipline.
type Sampler interface {
	// Bernoulli fills out with an independent P(bit=1)=p draw for every
	// lane in active and zeroes the rest.
	Bernoulli(p float64, active, out bits.Vec)
	// BernoulliBlock is the block form of Bernoulli: it appends to pos, in
	// ascending order, the faulted trials plane·lanes+lane among planes ×
	// lanes trials, consuming the stream exactly as `planes` back-to-back
	// Bernoulli calls over a full mask of `lanes` lanes do.
	BernoulliBlock(p float64, planes, lanes int, pos []int32) []int32
	// Coin fills out with a fair coin for every lane in active and zeroes
	// the rest.
	Coin(active, out bits.Vec)
	// Pauli1 draws a uniformly random nontrivial one-qubit Pauli for every
	// lane in faults, writing the X component into outX and the Z
	// component into outZ (Y sets both).
	Pauli1(faults, outX, outZ bits.Vec)
	// Pauli2 draws a uniformly random nontrivial two-qubit Pauli for every
	// lane in faults, writing the components for the first qubit into
	// outXa/outZa and for the second into outXb/outZb.
	Pauli2(faults, outXa, outZa, outXb, outZb bits.Vec)
	// Pauli1Biased is Pauli1 with a biased component distribution
	// (noise.Random1Biased with ratio η).
	Pauli1Biased(eta float64, faults, outX, outZ bits.Vec)
	// Pauli2Biased is Pauli2 with a biased component distribution
	// (noise.Random2Biased with ratio η).
	Pauli2Biased(eta float64, faults, outXa, outZa, outXb, outZb bits.Vec)
}

// --- lockstep: per-lane streams, bit-exact against the scalar Sim ---

// LockstepSampler drives one rand stream per lane in the scalar Sim's
// draw order. Lane i of NewLockstepSampler(seed, w) consumes exactly the
// stream rand.New(rand.NewPCG(seed, uint64(i))) — pair a scalar run with
// that stream and the batch lane reproduces it bit for bit.
type LockstepSampler struct {
	rngs []*rand.Rand
}

// NewLockstepSampler returns a lockstep sampler for w lanes; lane i draws
// from rand.New(rand.NewPCG(seed, uint64(i))).
func NewLockstepSampler(seed uint64, w int) *LockstepSampler {
	s := &LockstepSampler{rngs: make([]*rand.Rand, w)}
	for i := range s.rngs {
		s.rngs[i] = rand.New(rand.NewPCG(seed, uint64(i)))
	}
	return s
}

// Bernoulli draws one Float64 per active lane — also when p is 0 or 1,
// because the scalar Sim tests `rng.Float64() < p` unconditionally and the
// streams must stay aligned.
func (s *LockstepSampler) Bernoulli(p float64, active, out bits.Vec) {
	for i := 0; i < out.Words(); i++ {
		a := active.Word(i)
		var m uint64
		for b := a; b != 0; b &= b - 1 {
			lane := i*64 + trailingZeros(b)
			if s.rngs[lane].Float64() < p {
				m |= b & -b
			}
		}
		out.SetWord(i, m)
	}
}

// BernoulliBlock draws once per lane per plane, as Bernoulli does.
func (s *LockstepSampler) BernoulliBlock(p float64, planes, lanes int, pos []int32) []int32 {
	for t := 0; t < planes*lanes; t++ {
		if s.rngs[t%lanes].Float64() < p {
			pos = append(pos, int32(t))
		}
	}
	return pos
}

// Coin mirrors the scalar `rng.IntN(2) == 1` coin flip.
func (s *LockstepSampler) Coin(active, out bits.Vec) {
	for i := 0; i < out.Words(); i++ {
		a := active.Word(i)
		var m uint64
		for b := a; b != 0; b &= b - 1 {
			lane := i*64 + trailingZeros(b)
			if s.rngs[lane].IntN(2) == 1 {
				m |= b & -b
			}
		}
		out.SetWord(i, m)
	}
}

// Pauli1 mirrors noise.Random1 per faulted lane.
func (s *LockstepSampler) Pauli1(faults, outX, outZ bits.Vec) {
	scatterPauli1(faults, outX, outZ, s.laneRand)
}

// Pauli2 mirrors noise.Random2 per faulted lane.
func (s *LockstepSampler) Pauli2(faults, outXa, outZa, outXb, outZb bits.Vec) {
	scatterPauli2(faults, outXa, outZa, outXb, outZb, s.laneRand)
}

// Pauli1Biased mirrors noise.Random1Biased per faulted lane.
func (s *LockstepSampler) Pauli1Biased(eta float64, faults, outX, outZ bits.Vec) {
	scatterPauli1Biased(eta, faults, outX, outZ, s.laneRand)
}

// Pauli2Biased mirrors noise.Random2Biased per faulted lane.
func (s *LockstepSampler) Pauli2Biased(eta float64, faults, outXa, outZa, outXb, outZb bits.Vec) {
	scatterPauli2Biased(eta, faults, outXa, outZa, outXb, outZb, s.laneRand)
}

func (s *LockstepSampler) laneRand(lane int) *rand.Rand { return s.rngs[lane] }

// --- aggregate: one stream, word-at-a-time masks ---

// AggregateSampler samples whole fault masks from a single PCG stream.
// Bernoulli masks use geometric skipping over the active lanes of each
// word: with per-location fault probabilities of 10⁻²–10⁻⁴ a single
// Float64 draw usually certifies "no fault in these 64 shots", which is
// where the batch engine's throughput comes from.
type AggregateSampler struct {
	rng *rand.Rand
	// memoized 1/log1p(-p) for the handful of distinct probabilities a
	// noise.Params supplies.
	memoP   [8]float64
	memoInv [8]float64
	memoN   int
	// Geometric-skip carry: the number of active lanes still to skip
	// before the next fault, valid across words AND across consecutive
	// Bernoulli calls with the same p (the gap distribution is
	// memoryless). carryP records the probability the carry belongs to;
	// a different p resets it. This drops the draw count from one per
	// word to one per fault — the hot-loop win for plane-at-a-time
	// sampling (toric batches call Bernoulli thousands of times per
	// chunk with a fixed p).
	carry  float64
	carryP float64
}

// NewAggregateSampler returns an aggregate sampler over the PCG stream
// (seed, stream).
func NewAggregateSampler(seed, stream uint64) *AggregateSampler {
	return &AggregateSampler{rng: rand.New(rand.NewPCG(seed, stream))}
}

// invLog1p returns 1/log(1-p), memoized.
func (s *AggregateSampler) invLog1p(p float64) float64 {
	for i := 0; i < s.memoN; i++ {
		if s.memoP[i] == p {
			return s.memoInv[i]
		}
	}
	v := 1 / math.Log1p(-p)
	if s.memoN < len(s.memoP) {
		s.memoP[s.memoN] = p
		s.memoInv[s.memoN] = v
		s.memoN++
	}
	return v
}

// Bernoulli samples fault masks by geometric skipping: the gap between
// consecutive faulted lanes is Geometric(p), so the draw count is one per
// fault, not one per lane. The residual gap carries across words and
// across consecutive same-p calls (geometric gaps are memoryless), so a
// plane-at-a-time caller pays ~p·lanes draws per plane instead of at
// least one draw per word.
func (s *AggregateSampler) Bernoulli(p float64, active, out bits.Vec) {
	if p <= 0 {
		out.Clear()
		return
	}
	if p >= 1 {
		out.CopyFrom(active)
		return
	}
	inv := s.invLog1p(p)
	if s.carryP != p || math.IsInf(s.carry, 1) {
		// Fresh gap for a new probability: P(skip = k) = (1-p)^k · p — or
		// after an infinite one (Float64 returned exactly 0, probability
		// 2⁻⁵³), which ends with the call that drew it.
		s.carry = math.Floor(math.Log(s.rng.Float64()) * inv)
		s.carryP = p
	}
	skip := s.carry
	for i := 0; i < out.Words(); i++ {
		a := active.Word(i)
		if a == 0 {
			out.SetWord(i, 0)
			continue
		}
		if n := float64(popcount64(a)); skip >= n {
			skip -= n
			out.SetWord(i, 0)
			continue
		}
		var m uint64
		for {
			// skip < active lanes remaining in a, so the landing lane is
			// in this word (and the int conversion cannot overflow).
			for k := int(skip); k > 0; k-- {
				a &= a - 1
			}
			m |= a & -a
			a &= a - 1
			skip = math.Floor(math.Log(s.rng.Float64()) * inv)
			if rem := float64(popcount64(a)); skip >= rem {
				skip -= rem
				break
			}
		}
		out.SetWord(i, m)
	}
	s.carry = skip
}

// nextFaulted is the one gap walk behind every fused form: over the
// full-mask locations loc, loc+1, … < locs of w trials each it makes
// the draws that many Bernoulli calls make, up to and including the
// first location with a fault, and returns that location (or locs: none
// is left), its faulted lanes appended to out as loc·stride + lane. The
// state between locations is Bernoulli's between calls, the carry alone
// — an infinite gap ends with the location that drew it, p ≤ 0 and
// p ≥ 1 leave it untouched — and callers draw between calls.
func (s *AggregateSampler) nextFaulted(p float64, loc, locs, w, stride int, out []int32) (int, []int32) {
	if p <= 0 || loc >= locs {
		return locs, out
	}
	if p >= 1 {
		for lane := 0; lane < w; lane++ {
			out = append(out, int32(loc*stride+lane))
		}
		return loc, out
	}
	inv := s.invLog1p(p)
	for ; loc < locs; loc++ {
		if s.carryP != p || math.IsInf(s.carry, 1) {
			s.carry = math.Floor(math.Log(s.rng.Float64()) * inv)
			s.carryP = p
		}
		if math.IsInf(s.carry, 1) {
			continue
		}
		if rest := float64((locs - loc) * w); s.carry >= rest {
			s.carry -= rest
			return locs, out
		}
		skip := int(s.carry) // inside the block: the conversion cannot overflow
		loc += skip / w
		for lane := skip % w; ; {
			out = append(out, int32(loc*stride+lane))
			gap := math.Floor(math.Log(s.rng.Float64()) * inv)
			if rem := float64(w - 1 - lane); gap >= rem {
				s.carry = gap - rem
				break
			}
			lane += int(gap) + 1
		}
		return loc, out
	}
	return locs, out
}

// BernoulliBlock walks the gap stream over the whole block.
func (s *AggregateSampler) BernoulliBlock(p float64, planes, lanes int, pos []int32) []int32 {
	for plane := 0; plane < planes; plane++ {
		plane, pos = s.nextFaulted(p, plane, planes, lanes, lanes, pos)
	}
	return pos
}

// Coin draws one full-entropy word per word of lanes that need it.
func (s *AggregateSampler) Coin(active, out bits.Vec) {
	for i := 0; i < out.Words(); i++ {
		a := active.Word(i)
		if a == 0 {
			out.SetWord(i, 0)
			continue
		}
		out.SetWord(i, s.rng.Uint64()&a)
	}
}

// Pauli1 draws per faulted lane; faults are rare, so this is off the hot
// path.
func (s *AggregateSampler) Pauli1(faults, outX, outZ bits.Vec) {
	scatterPauli1(faults, outX, outZ, s.anyRand)
}

// Pauli2 draws per faulted lane.
func (s *AggregateSampler) Pauli2(faults, outXa, outZa, outXb, outZb bits.Vec) {
	scatterPauli2(faults, outXa, outZa, outXb, outZb, s.anyRand)
}

// Pauli1Biased draws per faulted lane with bias ratio eta.
func (s *AggregateSampler) Pauli1Biased(eta float64, faults, outX, outZ bits.Vec) {
	scatterPauli1Biased(eta, faults, outX, outZ, s.anyRand)
}

// Pauli2Biased draws per faulted lane with bias ratio eta.
func (s *AggregateSampler) Pauli2Biased(eta float64, faults, outXa, outZa, outXb, outZb bits.Vec) {
	scatterPauli2Biased(eta, faults, outXa, outZa, outXb, outZb, s.anyRand)
}

func (s *AggregateSampler) anyRand(int) *rand.Rand { return s.rng }

// scatterPauli1 draws a uniform nontrivial one-qubit Pauli for every lane
// in faults from the stream src selects for that lane, scattering the X/Z
// components into the output planes. Shared by both samplers so the Pauli
// encoding lives in one place.
func scatterPauli1(faults, outX, outZ bits.Vec, src func(lane int) *rand.Rand) {
	outX.Clear()
	outZ.Clear()
	for i := 0; i < faults.Words(); i++ {
		for b := faults.Word(i); b != 0; b &= b - 1 {
			lane := i*64 + trailingZeros(b)
			e := noise.Random1(src(lane))
			low := b & -b
			if e&noise.ErrX != 0 {
				outX.XorWord(i, low)
			}
			if e&noise.ErrZ != 0 {
				outZ.XorWord(i, low)
			}
		}
	}
}

// scatterPauli2 is scatterPauli1 for two-qubit Paulis.
func scatterPauli2(faults, outXa, outZa, outXb, outZb bits.Vec, src func(lane int) *rand.Rand) {
	outXa.Clear()
	outZa.Clear()
	outXb.Clear()
	outZb.Clear()
	for i := 0; i < faults.Words(); i++ {
		for b := faults.Word(i); b != 0; b &= b - 1 {
			lane := i*64 + trailingZeros(b)
			ea, eb := noise.Random2(src(lane))
			low := b & -b
			if ea&noise.ErrX != 0 {
				outXa.XorWord(i, low)
			}
			if ea&noise.ErrZ != 0 {
				outZa.XorWord(i, low)
			}
			if eb&noise.ErrX != 0 {
				outXb.XorWord(i, low)
			}
			if eb&noise.ErrZ != 0 {
				outZb.XorWord(i, low)
			}
		}
	}
}

// scatterPauli1Biased is scatterPauli1 with noise.Random1Biased draws.
func scatterPauli1Biased(eta float64, faults, outX, outZ bits.Vec, src func(lane int) *rand.Rand) {
	outX.Clear()
	outZ.Clear()
	for i := 0; i < faults.Words(); i++ {
		for b := faults.Word(i); b != 0; b &= b - 1 {
			lane := i*64 + trailingZeros(b)
			e := noise.Random1Biased(src(lane), eta)
			low := b & -b
			if e&noise.ErrX != 0 {
				outX.XorWord(i, low)
			}
			if e&noise.ErrZ != 0 {
				outZ.XorWord(i, low)
			}
		}
	}
}

// scatterPauli2Biased is scatterPauli2 with noise.Random2Biased draws.
func scatterPauli2Biased(eta float64, faults, outXa, outZa, outXb, outZb bits.Vec, src func(lane int) *rand.Rand) {
	outXa.Clear()
	outZa.Clear()
	outXb.Clear()
	outZb.Clear()
	for i := 0; i < faults.Words(); i++ {
		for b := faults.Word(i); b != 0; b &= b - 1 {
			lane := i*64 + trailingZeros(b)
			ea, eb := noise.Random2Biased(src(lane), eta)
			low := b & -b
			if ea&noise.ErrX != 0 {
				outXa.XorWord(i, low)
			}
			if ea&noise.ErrZ != 0 {
				outZa.XorWord(i, low)
			}
			if eb&noise.ErrX != 0 {
				outXb.XorWord(i, low)
			}
			if eb&noise.ErrZ != 0 {
				outZb.XorWord(i, low)
			}
		}
	}
}

// trailingZeros names math/bits.TrailingZeros64 under the import alias.
func trailingZeros(x uint64) int { return mbits.TrailingZeros64(x) }

// popcount64 names math/bits.OnesCount64 under the import alias.
func popcount64(x uint64) int { return mbits.OnesCount64(x) }
