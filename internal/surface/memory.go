package surface

import (
	"fmt"

	"ftqc/internal/bits"
	"ftqc/internal/decoder"
	"ftqc/internal/frame"
)

// BatchMemoryXZ runs `lanes` shots of the 2D dual-sector passive-memory
// experiment for any Code: independent bit-flip (X) and phase-flip (Z)
// errors with probability p per data qubit, each sector's syndromes
// decoded by weighted union-find over its sector graph (boundary-
// grounded for open codes), logical failure read off the code's
// failure detectors. Draw order: all X qubit planes in qubit order,
// then all Z qubit planes.
func BatchMemoryXZ(code Code, p float64, lanes int, smp frame.Sampler) (failX, failZ bits.Vec) {
	active := bits.NewVec(lanes)
	active.SetAll()
	var planes [2][]bits.Vec
	for s := range planes {
		planes[s] = bits.NewVecs(code.Qubits(), lanes)
		for _, pl := range planes[s] {
			smp.Bernoulli(p, active, pl)
		}
	}
	var fail [2]bits.Vec
	for s, dual := range [2]bool{false, true} {
		uf := decoder.NewUnionFind(code.SectorGraph(dual))
		fail[s] = SectorFailures(code, dual, planes[s], func(defects []int, corr bits.Vec) {
			uf.Decode(defects, func(e int) { corr.Flip(e) })
		})
	}
	return fail[0], fail[1]
}

// SectorFailures is the 2D decode stage of one sector: from the
// qubit-major error planes of a chunk's lanes it computes the check
// planes and the failure-detector parities, pivots the checks
// lane-major, and decodes each lane in turn on the calling goroutine —
// decode XORs a correction of the lane's defect list onto corr (zeroed
// first). The correction's syndrome equals the defect set, so the
// residual is a cycle and the detector parities of error plus
// correction decide failure. Returns the per-lane failure mask.
func SectorFailures(code Code, dual bool, planes []bits.Vec, decode func(defects []int, corr bits.Vec)) bits.Vec {
	lanes := planes[0].Len()
	checks := bits.NewVecs(code.Checks(), lanes)
	code.CheckPlanes(dual, planes, checks)
	p1, p2 := bits.NewVec(lanes), bits.NewVec(lanes)
	code.LogicalPlanes(dual, planes, p1, p2)
	syn := bits.NewVecs(lanes, code.Checks())
	bits.TransposePlanes(syn, checks)
	fails := bits.NewVec(lanes)
	corr := bits.NewVec(code.Qubits())
	var defects []int
	for lane := range lanes {
		defects = syn[lane].AppendSupport(defects[:0])
		l1, l2 := p1.Get(lane), p2.Get(lane)
		if len(defects) > 0 {
			corr.Clear()
			decode(defects, corr)
			c1, c2 := code.LogicalParity(dual, corr)
			l1, l2 = l1 != c1, l2 != c2
		}
		if l1 || l2 {
			fails.Set(lane, true)
		}
	}
	return fails
}

// MemoryResult summarizes a code-parameterized 2D memory run.
type MemoryResult struct {
	Code     string
	D        int
	P        float64
	Samples  int
	FailX    int
	FailZ    int
	Failures int // shots failing in either sector
}

// FailRate returns the either-sector logical failure probability.
func (r MemoryResult) FailRate() float64 { return float64(r.Failures) / float64(r.Samples) }

// MemoryExperimentXZ runs the 2D dual-sector memory experiment for any
// Code, fanned out over the CPUs in deterministic seed-per-chunk
// batches. A nil code, a rate that is NaN or outside [0, 1], or an
// empty sample is an error (CheckMemory).
func MemoryExperimentXZ(code Code, p float64, samples int, seed uint64) (MemoryResult, error) {
	if code == nil {
		return MemoryResult{}, fmt.Errorf("surface: memory needs a code")
	}
	if err := CheckMemory(p, samples); err != nil {
		return MemoryResult{}, err
	}
	fx, fz, fa := frame.CountSectorFailures(samples, seed, func(lanes int, smp frame.Sampler) (bits.Vec, bits.Vec) {
		return BatchMemoryXZ(code, p, lanes, smp)
	})
	return MemoryResult{Code: code.CodeName(), D: code.Distance(), P: p, Samples: samples,
		FailX: fx, FailZ: fz, Failures: fa}, nil
}

// CheckMemory is the argument gate of the 2D memory drivers: a flip
// rate that is NaN or outside [0, 1] or fewer than one sample is an
// error, never a sampler walk that cannot end or a NaN failure rate.
func CheckMemory(p float64, samples int) error {
	if !(p >= 0 && p <= 1) {
		return fmt.Errorf("surface: p = %v outside [0,1]", p)
	}
	if samples < 1 {
		return fmt.Errorf("surface: need at least one sample (got %d)", samples)
	}
	return nil
}
