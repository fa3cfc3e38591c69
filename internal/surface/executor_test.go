package surface

import (
	"testing"

	"ftqc/internal/bits"
	"ftqc/internal/frame"
	"ftqc/internal/noise"
)

// TestCircuitSourceExecutor pins which executor each CircuitSource
// model's rounds take: plain and biased circuit noise on the Monte Carlo
// sampler run the fused walk, and leakage, a lockstep sampler, an armed
// trigger and a narrowed active mask run the gate path. The two give the
// same planes (TestFusedRoundFallbacks), so a model that fell off the
// walk would show only in its speed. The choice reads the simulator,
// not the code, so the open codes stand for the torus too (whose package
// imports this one).
func TestCircuitSourceExecutor(t *testing.T) {
	const lanes = 8
	plain := noise.Uniform(0.01)
	biased, leaky := plain, plain
	biased.Bias = 4
	leaky.Leak = 0.02
	half := bits.NewVec(lanes)
	half.Set(0, true)
	for _, code := range []Code{Planar(3), Rotated(3)} {
		for _, c := range []struct {
			name  string
			P     noise.Params
			smp   frame.Sampler
			setup func(b *frame.BatchSim)
			fused bool
		}{
			{"plain", plain, nil, nil, true},
			{"leak", leaky, nil, nil, false},
			{"bias", biased, nil, nil, true},
			{"lockstep", plain, frame.NewLockstepSampler(3, lanes), nil, false},
			{"armed-trigger", plain, nil, func(b *frame.BatchSim) { b.ArmTrigger(0, 5) }, false},
			{"narrowed-mask", plain, nil, func(b *frame.BatchSim) { b.PushActive(half) }, false},
		} {
			smp := c.smp
			if smp == nil {
				smp = frame.NewAggregateSampler(3, 0)
			}
			src := NewCircuitSource(code, c.P, lanes, smp)
			if c.setup != nil {
				c.setup(src.Sim())
			}
			for round := range 2 {
				if fused := src.runRound(); fused != c.fused {
					t.Fatalf("%s %s round %d: fused walk %v, want %v", code.CodeName(), c.name, round, fused, c.fused)
				}
			}
		}
	}
}

// LocationsPerRound returns the number of fault locations one
// extraction round of the code executes (the ArmTrigger coordinate
// system of the single-fault enumeration): one storage step per data
// qubit plus, per check of either sector, prep + one CNOT per support
// qubit + meas. For the torus this is the familiar 2L² + 12L².
func LocationsPerRound(code Code) int {
	return code.ExtractionSchedule().roundPlan().Locations()
}

// Sim exposes the underlying batch simulator for fault-injection
// harnesses (ArmTrigger single-fault enumeration, InjectX/InjectZ).
func (s *CircuitSource) Sim() *frame.BatchSim { return s.sim }
