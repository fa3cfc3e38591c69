package frame

// The block form of Bernoulli and the fused round both rest on one
// claim: walking the geometric gap stream over a block of full-mask
// locations consumes the sampler exactly as one Bernoulli call per
// location does. These tests hold the per-location calls up as the
// reference — fault positions, and the stream left behind.

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"ftqc/internal/bits"
	"ftqc/internal/noise"
)

// planeLoop is the reference of BernoulliBlock: one Bernoulli call per
// plane over a full mask, positions read off the masks.
func planeLoop(s Sampler, p float64, planes, lanes int, pos []int32) []int32 {
	active, out := bits.NewVec(lanes), bits.NewVec(lanes)
	active.SetAll()
	for pl := 0; pl < planes; pl++ {
		s.Bernoulli(p, active, out)
		for _, lane := range out.Support() {
			pos = append(pos, int32(pl*lanes+lane))
		}
	}
	return pos
}

// streamAhead returns what a sampler would draw next: the carry state
// and the next 64 words of every stream it owns (consuming them).
func streamAhead(s Sampler) []uint64 {
	var out []uint64
	switch s := s.(type) {
	case *AggregateSampler:
		out = append(out, math.Float64bits(s.carry), math.Float64bits(s.carryP))
		for i := 0; i < 64; i++ {
			out = append(out, s.rng.Uint64())
		}
	case *LockstepSampler:
		for _, r := range s.rngs {
			for i := 0; i < 64; i++ {
				out = append(out, r.Uint64())
			}
		}
	}
	return out
}

// TestBlockFaultsMatchBernoulli drives a per-plane sampler and a block
// sampler through the same random script — blocks of 1–50 planes at
// changing probabilities (same-p runs, so the carry crosses blocks;
// switches, so it resets; the p ≤ 0 and p ≥ 1 edges, which leave it
// alone) with Coin draws in between — and demands the same fault
// positions from every block and the same stream afterwards.
func TestBlockFaultsMatchBernoulli(t *testing.T) {
	ps := []float64{0, 1e-4, 0.01, 0.3, 1}
	samplers := map[string]func(lanes int) Sampler{
		"aggregate": func(int) Sampler { return NewAggregateSampler(71, 3) },
		"lockstep":  func(lanes int) Sampler { return NewLockstepSampler(71, lanes) },
	}
	for name, mk := range samplers {
		for _, lanes := range []int{1, 63, 64, 65, 100, 128} {
			t.Run(fmt.Sprintf("%s/lanes=%d", name, lanes), func(t *testing.T) {
				ref, blk := mk(lanes), mk(lanes)
				script := rand.New(rand.NewPCG(5, uint64(lanes)))
				active, cr, cb := bits.NewVec(lanes), bits.NewVec(lanes), bits.NewVec(lanes)
				active.SetAll()
				faults := 0
				p := ps[0]
				for step := 0; step < 300; step++ {
					switch script.IntN(4) {
					case 0:
						p = ps[script.IntN(len(ps))]
					case 1:
						ref.Coin(active, cr)
						blk.Coin(active, cb)
						if !cr.Equal(cb) {
							t.Fatalf("step %d: coin planes differ", step)
						}
						continue
					}
					planes := 1 + script.IntN(50)
					want := planeLoop(ref, p, planes, lanes, nil)
					got := blk.BernoulliBlock(p, planes, lanes, nil)
					if !slices.Equal(got, want) {
						t.Fatalf("step %d (p=%g, %d planes): block faults %v, per-plane %v", step, p, planes, got, want)
					}
					faults += len(got)
				}
				if faults == 0 {
					t.Fatal("degenerate script: no faults")
				}
				if !slices.Equal(streamAhead(ref), streamAhead(blk)) {
					t.Fatal("the samplers' streams differ after the script")
				}
			})
		}
	}
}

// zeroAt is a rand.Source that replays a PCG stream with draw number
// `at` replaced by 0 — Float64 then returns exactly 0, the one draw
// whose geometric gap is infinite.
type zeroAt struct {
	src rand.Source
	at  int
	n   int
}

func (z *zeroAt) Uint64() uint64 {
	v := z.src.Uint64()
	if z.n++; z.n-1 == z.at {
		return 0
	}
	return v
}

func scripted(at int) *AggregateSampler {
	return &AggregateSampler{rng: rand.New(&zeroAt{src: rand.NewPCG(19, 7), at: at})}
}

// TestZeroDrawBlockMatchesBernoulli: an infinite gap leaves the rest of
// its own plane fault-free and the next plane redraws — in the block
// form exactly as across Bernoulli calls, wherever in the block (first
// draw, mid-plane, last plane) the zero lands.
func TestZeroDrawBlockMatchesBernoulli(t *testing.T) {
	const p, planes, lanes = 0.05, 12, 100
	poisoned := 0
	for at := 0; at < 90; at++ {
		ref, blk := scripted(at), scripted(at)
		for block := 0; block < 3; block++ {
			want := planeLoop(ref, p, planes, lanes, nil)
			got := blk.BernoulliBlock(p, planes, lanes, nil)
			if !slices.Equal(got, want) {
				t.Fatalf("zero at draw %d, block %d: block faults %v, per-plane %v", at, block, got, want)
			}
			if math.IsInf(blk.carry, 1) {
				poisoned++
			}
		}
		if !slices.Equal(streamAhead(ref), streamAhead(blk)) {
			t.Fatalf("zero at draw %d: streams differ afterwards", at)
		}
	}
	if poisoned == 0 {
		t.Fatal("no zero draw ended a block on an infinite carry")
	}
}

// TestZeroDrawRunRoundMatchesGateLoop: the fused round and the per-gate
// loop stay draw-for-draw on a zero draw too. The gap of a zero draw
// ends at the boundary of the location that drew it, not at the end of
// the block — so the frames, the fault count and the stream left
// behind are those of the gate loop whichever draw is the zero.
func TestZeroDrawRunRoundMatchesGateLoop(t *testing.T) {
	const nd, na, lanes, rounds = 6, 3, 100, 3
	P := noise.Uniform(0.04)
	data := []int32{0, 1, 2, 3, 4, 5}
	anc := []int32{6, 7, 8}
	steps := [][]int32{{0, 2, 4}, {1, 3, 5}}
	pl := NewRoundPlan()
	pl.Storage(data)
	pl.PrepZ(anc)
	for _, st := range steps {
		pl.CNOTStep(st, anc)
	}
	pl.MeasZ(anc, []int32{0, 1, 2})
	pl.PrepX(anc)
	for _, st := range steps {
		pl.CNOTStep(anc, st)
	}
	pl.MeasX(anc, []int32{3, 4, 5})
	gateLoop := func(b *BatchSim, meas []bits.Vec) {
		for _, q := range data {
			b.Storage(int(q))
		}
		for _, a := range anc {
			b.PrepZ(int(a))
		}
		for _, st := range steps {
			for i, a := range anc {
				b.CNOT(int(st[i]), int(a))
			}
		}
		for i, a := range anc {
			b.MeasZInto(int(a), meas[i])
		}
		for _, a := range anc {
			b.PrepX(int(a))
		}
		for _, st := range steps {
			for i, a := range anc {
				b.CNOT(int(a), int(st[i]))
			}
		}
		for i, a := range anc {
			b.MeasXInto(int(a), meas[3+i])
		}
	}
	for at := 0; at < 120; at++ {
		fs, gs := scripted(at), scripted(at)
		fused, gates := NewBatch(nd+na, lanes, P, fs), NewBatch(nd+na, lanes, P, gs)
		fm, gm := bits.NewVecs(6, lanes), bits.NewVecs(6, lanes)
		for r := 0; r < rounds; r++ {
			fused.RunRound(pl, fm)
			gateLoop(gates, gm)
			for i := range fm {
				if !fm[i].Equal(gm[i]) {
					t.Fatalf("zero at draw %d, round %d: measurement plane %d differs", at, r, i)
				}
			}
		}
		for q := 0; q < nd+na; q++ {
			if !fused.fx[q].Equal(gates.fx[q]) || !fused.fz[q].Equal(gates.fz[q]) {
				t.Fatalf("zero at draw %d: frames differ on qubit %d", at, q)
			}
		}
		if fused.FaultCount != gates.FaultCount || fused.LocationCount != gates.LocationCount {
			t.Fatalf("zero at draw %d: fault/location counts %d/%d, gate loop %d/%d", at,
				fused.FaultCount, fused.LocationCount, gates.FaultCount, gates.LocationCount)
		}
		if !slices.Equal(streamAhead(fs), streamAhead(gs)) {
			t.Fatalf("zero at draw %d: streams differ afterwards", at)
		}
	}
}

// fuzzPlan decodes a fuzz input into a round plan over nd data qubits
// and na ancillas. Each block is a kind byte (storage, prep Z, prep X,
// CNOT step, measure Z, measure X), a count byte and the qubit bytes
// (mod nd+na): a repeated qubit is dropped from prep and measurement
// blocks, and a CNOT pair that repeats a qubit of its step is dropped.
// Measurements fill slots in order; it returns the plan and the number
// of slots.
func fuzzPlan(nd, na int, prog []byte) (*RoundPlan, int) {
	n := nd + na
	pl := NewRoundPlan()
	slots := 0
	next := func() int {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return int(b)
	}
	for len(prog) > 0 {
		kind, k := next()%6, next()%(n+1)
		used := make([]bool, n)
		var qa, qb, slot []int32
		for i := 0; i < k; i++ {
			a := next() % n
			if kind == opCNOT {
				c := next() % n
				if a == c || used[a] || used[c] {
					continue
				}
				used[c] = true
				qb = append(qb, int32(c))
			} else if kind != opStorage && used[a] {
				continue
			}
			used[a] = true
			qa = append(qa, int32(a))
			if kind == opMeasZ || kind == opMeasX {
				slot = append(slot, int32(slots))
				slots++
			}
		}
		switch kind {
		case opStorage:
			pl.Storage(qa)
		case opPrepZ:
			pl.PrepZ(qa)
		case opPrepX:
			pl.PrepX(qa)
		case opCNOT:
			pl.CNOTStep(qa, qb)
		case opMeasZ:
			pl.MeasZ(qa, slot)
		case opMeasX:
			pl.MeasX(qa, slot)
		}
	}
	return pl, slots
}

// fuzzRate maps a byte to a fault probability: 0, 1, or a value in
// between (0.0002 to 0.97, denser at the small end).
func fuzzRate(r byte) float64 {
	switch r % 4 {
	case 0:
		return 0
	case 1:
		return 1
	}
	x := float64(r>>2+1) / 65
	return x * x
}

// FuzzRunRound holds RunRound's two executors to each other on random
// plans: the fused block walk and the gate path, on equal
// AggregateSamplers over two rounds, must leave the same frames,
// measurement planes, FaultCount, LocationCount and next sampler draw.
// The input packs the shape (1–12 data qubits, 1–6 ancillas), the lane
// count (1–200), the storage, prep, two-qubit gate and measurement
// rates, one byte each, the bias ratio η = byte/16 (0 is unbiased), and
// the plan (fuzzPlan).
func FuzzRunRound(f *testing.F) {
	// The plan of TestZeroDrawRunRoundMatchesGateLoop: 6 data qubits,
	// 3 ancillas, 100 lanes, every rate 0.04, η = 4.
	f.Add(uint64(19), uint8(5+12*2), uint8(99), uint32(0x32323232), uint8(64), []byte{
		opStorage, 6, 0, 1, 2, 3, 4, 5,
		opPrepZ, 3, 6, 7, 8,
		opCNOT, 3, 0, 6, 2, 7, 4, 8,
		opCNOT, 3, 1, 6, 3, 7, 5, 8,
		opMeasZ, 3, 6, 7, 8,
		opPrepX, 3, 6, 7, 8,
		opCNOT, 3, 6, 0, 7, 2, 8, 4,
		opCNOT, 3, 6, 1, 7, 3, 8, 5,
		opMeasX, 3, 6, 7, 8,
	})
	f.Fuzz(func(t *testing.T, seed uint64, shape, lanes uint8, rates uint32, bias uint8, prog []byte) {
		nd, na, w := 1+int(shape)%12, 1+int(shape)/12%6, 1+int(lanes)%200
		P := noise.Params{
			Storage: fuzzRate(byte(rates)),
			Prep:    fuzzRate(byte(rates >> 8)),
			Gate2:   fuzzRate(byte(rates >> 16)),
			Meas:    fuzzRate(byte(rates >> 24)),
			Bias:    float64(bias) / 16,
		}
		pl, slots := fuzzPlan(nd, na, prog)
		fs, gs := NewAggregateSampler(seed, 1), NewAggregateSampler(seed, 1)
		fused, gates := NewBatch(nd+na, w, P, fs), NewBatch(nd+na, w, P, gs)
		fm, gm := bits.NewVecs(slots, w), bits.NewVecs(slots, w)
		for r := 0; r < 2; r++ {
			if !fused.RunRound(pl, fm) {
				t.Fatalf("round %d: RunRound took the gate path", r)
			}
			gates.runGates(pl, gm)
			for i := range fm {
				if !fm[i].Equal(gm[i]) {
					t.Fatalf("round %d: measurement plane %d differs", r, i)
				}
			}
		}
		for q := 0; q < nd+na; q++ {
			if !fused.fx[q].Equal(gates.fx[q]) || !fused.fz[q].Equal(gates.fz[q]) {
				t.Fatalf("frames differ on qubit %d", q)
			}
		}
		if fused.FaultCount != gates.FaultCount || fused.LocationCount != gates.LocationCount {
			t.Fatalf("fault/location counts %d/%d, gate path %d/%d",
				fused.FaultCount, fused.LocationCount, gates.FaultCount, gates.LocationCount)
		}
		if !slices.Equal(streamAhead(fs), streamAhead(gs)) {
			t.Fatal("streams differ afterwards")
		}
	})
}
