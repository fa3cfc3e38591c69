package ft

import (
	"sync/atomic"

	"ftqc/internal/bits"
	"ftqc/internal/frame"
	"ftqc/internal/noise"
)

// ECMethod selects the recovery gadget under test.
type ECMethod int

// Recovery methods.
const (
	MethodSteane ECMethod = iota // Fig. 9, 14 ancilla qubits per recovery
	MethodShor                   // Figs. 7–8, 24 ancilla qubits per recovery
	MethodNaive                  // Fig. 2, not fault tolerant (baseline)
)

// String names the method.
func (m ECMethod) String() string {
	return [...]string{"steane", "shor", "naive"}[m]
}

// wire layout for one-block experiments:
// data 0..6, steane ancilla 7..13, check 14..20, cat 21..24, ver 25.
const (
	oneBlockWires = 26
)

func oneBlockLayout() (data, anc, chk, cat []int, ver int) {
	data = []int{0, 1, 2, 3, 4, 5, 6}
	anc = []int{7, 8, 9, 10, 11, 12, 13}
	chk = []int{14, 15, 16, 17, 18, 19, 20}
	cat = []int{21, 22, 23, 24}
	ver = 25
	return
}

// RunEC performs one recovery with the chosen method on the given sim.
func RunEC(s *frame.Sim, method ECMethod, cfg Config) {
	data, anc, chk, cat, ver := oneBlockLayout()
	switch method {
	case MethodSteane:
		SteaneEC(s, data, anc, chk, cfg)
	case MethodShor:
		ShorEC(s, data, cat, ver, cfg)
	case MethodNaive:
		NaiveEC(s, data, ver, cfg)
	}
}

// MemoryResult aggregates a logical-memory Monte Carlo run.
type MemoryResult struct {
	Samples   int
	XFailures int
	ZFailures int
	Failures  int // either
}

// FailRate returns the probability that the stored qubit was damaged.
func (r MemoryResult) FailRate() float64 { return float64(r.Failures) / float64(r.Samples) }

// XRate returns the logical bit-flip rate.
func (r MemoryResult) XRate() float64 { return float64(r.XFailures) / float64(r.Samples) }

// ZRate returns the logical phase-flip rate.
func (r MemoryResult) ZRate() float64 { return float64(r.ZFailures) / float64(r.Samples) }

// MemoryExperiment measures the fidelity of an encoded qubit held for
// `rounds` cycles of [storage noise + recovery], the scenario behind
// Preskill Eq. (14). storageP governs the idle noise on the data between
// recoveries; gadgetP governs the noise inside the recovery circuitry
// (set it to zero for the paper's "flawless recovery" idealization).
// Samples run on the batched frame engine, 64+ shots per machine word.
func MemoryExperiment(method ECMethod, storageP, gadgetP noise.Params, cfg Config, rounds, samples int, seed uint64) MemoryResult {
	return parallelBatchMC(oneBlockWires, storageP, samples, seed, func(b *frame.BatchSim) (bits.Vec, bits.Vec) {
		data, _, _, _, _ := oneBlockLayout()
		for r := 0; r < rounds; r++ {
			b.P = storageP
			for _, q := range data {
				b.Storage(q)
			}
			b.P = gadgetP
			RunECBatch(b, method, cfg)
		}
		return IdealDecodeBatch(b, data)
	})
}

// UnencodedMemory is the baseline: a bare qubit exposed to the same
// storage noise with no recovery; any accumulated error is a failure
// (fidelity 1−ε per step, Eq. 14's left-hand side).
func UnencodedMemory(storageP noise.Params, rounds, samples int, seed uint64) MemoryResult {
	return parallelBatchMC(1, storageP, samples, seed, func(b *frame.BatchSim) (bits.Vec, bits.Vec) {
		for r := 0; r < rounds; r++ {
			b.Storage(0)
		}
		return b.PlaneX(0), b.PlaneZ(0)
	})
}

// ExRecResult reports an extended-rectangle Monte Carlo.
type ExRecResult struct {
	Samples  int
	Failures int
}

// FailRate is the logical failure probability of the rectangle.
func (r ExRecResult) FailRate() float64 { return float64(r.Failures) / float64(r.Samples) }

// ExRecCNOT measures the failure probability of the basic unit of
// fault-tolerant computation from §5: a transversal XOR between two clean
// encoded blocks followed by a full recovery of each block. The logical
// error probability scales as A·ε² below threshold; the fitted A is the
// coefficient of the concatenation flow equation (Eq. 33's circuit-level
// analogue).
func ExRecCNOT(method ECMethod, p noise.Params, cfg Config, samples int, seed uint64) ExRecResult {
	// wires: block A 0..6, block B 7..13, shared ancilla workspace after.
	const wires = 14 + 19
	dataA := []int{0, 1, 2, 3, 4, 5, 6}
	dataB := []int{7, 8, 9, 10, 11, 12, 13}
	anc := []int{14, 15, 16, 17, 18, 19, 20}
	chk := []int{21, 22, 23, 24, 25, 26, 27}
	cat := []int{28, 29, 30, 31}
	ver := 32
	res := parallelBatchMC(wires, p, samples, seed, func(b *frame.BatchSim) (bits.Vec, bits.Vec) {
		LogicalCNOTBatch(b, dataA, dataB)
		ecOn := func(data []int) {
			switch method {
			case MethodSteane:
				SteaneECBatch(b, data, anc, chk, cfg)
			case MethodShor:
				ShorECBatch(b, data, cat, ver, cfg)
			case MethodNaive:
				NaiveECBatch(b, data, ver, cfg)
			}
		}
		ecOn(dataA)
		ecOn(dataB)
		xa, za := IdealDecodeBatch(b, dataA)
		xb, zb := IdealDecodeBatch(b, dataB)
		xa.Or(za) // per-lane: block A damaged
		xb.Or(zb) // per-lane: block B damaged
		return xa, xb
	})
	return ExRecResult{Samples: res.Samples, Failures: res.Failures}
}

// ECFailureRate measures the failure probability of a single recovery
// applied to a clean block — the "1-Rec" used to calibrate the level-1
// flow equation.
func ECFailureRate(method ECMethod, p noise.Params, cfg Config, samples int, seed uint64) ExRecResult {
	res := parallelBatchMC(oneBlockWires, p, samples, seed, func(b *frame.BatchSim) (bits.Vec, bits.Vec) {
		data, _, _, _, _ := oneBlockLayout()
		RunECBatch(b, method, cfg)
		return IdealDecodeBatch(b, data)
	})
	return ExRecResult{Samples: res.Samples, Failures: res.Failures}
}

// CatPrepAttempts is E04: the mean number of Fig. 8 cat-state
// preparations per verified cat under noise p (the reciprocal is the
// acceptance rate).
func CatPrepAttempts(p noise.Params, cfg Config, samples int, seed uint64) float64 {
	_, _, _, cat, ver := oneBlockLayout()
	var total atomic.Int64
	frame.ForEachChunk(samples, seed, func(lanes int, smp frame.Sampler) {
		b := frame.NewBatch(oneBlockWires, lanes, p, smp)
		total.Add(int64(PrepVerifiedCatBatch(b, cat, ver, cfg)))
	})
	return float64(total.Load()) / float64(samples)
}

// ZeroPrepEscapes is E05: the fraction of verified |0̄⟩ preparations
// (§3.3) whose block still carries X weight ≥ 2 after verification and
// repair. The weight is the raw frame's, so a stabilizer times at most
// one flip, which recovery removes, counts too.
func ZeroPrepEscapes(p noise.Params, cfg Config, samples int, seed uint64) float64 {
	res := parallelBatchMC(oneBlockWires, p, samples, seed, func(b *frame.BatchSim) (bits.Vec, bits.Vec) {
		esc := zeroPrepEscapeLanes(b, cfg)
		return esc, bits.NewVec(b.Lanes())
	})
	return float64(res.Failures) / float64(res.Samples)
}

// zeroPrepEscapeLanes prepares a verified |0̄⟩ on every lane and returns
// the lanes whose ancilla block carries X weight ≥ 2.
func zeroPrepEscapeLanes(b *frame.BatchSim, cfg Config) bits.Vec {
	_, anc, chk, _, _ := oneBlockLayout()
	PrepVerifiedZeroBatch(b, anc, chk, cfg)
	// Bit-sliced count saturating at two: twos collects the lanes where
	// a flip meets an earlier one.
	ones, twos, both := bits.NewVec(b.Lanes()), bits.NewVec(b.Lanes()), bits.NewVec(b.Lanes())
	for _, q := range anc {
		x := b.PlaneX(q)
		both.CopyFrom(ones)
		both.And(x)
		twos.Or(both)
		ones.Or(x)
	}
	return twos
}

// parallelBatchMC fans samples out as fixed-width lane batches over the
// available CPUs via frame.CountSectorFailures (deterministic stream per
// chunk: results depend only on samples and seed). trial runs one batch
// and returns the per-lane X/Z failure planes.
func parallelBatchMC(wires int, p noise.Params, samples int, seed uint64,
	trial func(b *frame.BatchSim) (xfail, zfail bits.Vec)) MemoryResult {
	xs, zs, anys := frame.CountSectorFailures(samples, seed, func(lanes int, smp frame.Sampler) (bits.Vec, bits.Vec) {
		return trial(frame.NewBatch(wires, lanes, p, smp))
	})
	return MemoryResult{Samples: samples, XFailures: xs, ZFailures: zs, Failures: anys}
}
