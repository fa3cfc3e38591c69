package frame

import (
	"math"
	mbits "math/bits"
	"math/rand/v2"

	"ftqc/internal/bits"
)

// Sampler supplies the randomness of a batch simulator as lane masks,
// plus the stream a faulted lane's Pauli is drawn from. The mask methods
// are restricted to the lanes of `active`: bits outside it are always
// written as 0.
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
	// Stream returns the stream that draws a faulted lane's content (its
	// Pauli, noise.Draw1 or Draw2): the lane's own under lockstep, the
	// one shared stream under aggregate sampling.
	Stream(lane int) *rand.Rand
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

// Stream returns lane's own stream.
func (s *LockstepSampler) Stream(lane int) *rand.Rand { return s.rngs[lane] }

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

// Stream returns the one stream, whichever the lane: faults are rare,
// so their content is drawn per faulted lane off the hot path.
func (s *AggregateSampler) Stream(int) *rand.Rand { return s.rng }

// trailingZeros names math/bits.TrailingZeros64 under the import alias.
func trailingZeros(x uint64) int { return mbits.TrailingZeros64(x) }

// popcount64 names math/bits.OnesCount64 under the import alias.
func popcount64(x uint64) int { return mbits.OnesCount64(x) }
