package ft

import (
	"ftqc/internal/bits"
	"ftqc/internal/frame"
	"ftqc/internal/noise"
)

// LeakDetectBatch runs the Fig. 15 leakage-detection circuit on data qubit
// d with ancilla anc on every active lane and returns the lanes that
// report leakage. The ancilla ends in |1⟩ when the data qubit is still in
// the computational space and in |0⟩ when it has leaked (the XOR acts
// trivially on a leaked qubit); noise in the circuit can misreport either
// way.
func LeakDetectBatch(b *frame.BatchSim, d, anc int) bits.Vec {
	active := b.Active()
	b.PrepZ(anc)
	// Two XORs with a deliberate flip of the data in between: a healthy
	// data qubit toggles the ancilla an odd number of times (d ⊕ (d⊕1) =
	// 1), a leaked one never toggles it. The deliberate flips cancel on
	// the data qubit; only their gate noise remains.
	b.CNOT(d, anc)
	b.PauliGate(d)
	b.CNOT(d, anc)
	b.PauliGate(d)
	// Noiseless reading: 1 if healthy, 0 if leaked. MeasZ reports the
	// flip relative to the healthy reference, so a leaked qubit (whose
	// XORs acted trivially) reads as flipped.
	detected := b.MeasZ(anc)
	detected.Xor(b.PlanesLeak(d + 1)[d])
	detected.And(active)
	return detected
}

// LeakageCycleResult reports the E14 experiment.
type LeakageCycleResult struct {
	Samples  int
	Failures int
}

// FailRate is the per-sample logical failure probability.
func (r LeakageCycleResult) FailRate() float64 {
	return float64(r.Failures) / float64(r.Samples)
}

// LeakageExperiment stores an encoded qubit for `rounds` cycles under a
// noise model that includes leakage. When detect is true, every cycle
// interrogates each data qubit with the Fig. 15 circuit and replaces
// leaked qubits with fresh |0⟩s before recovery (§6: "we replace it with
// a fresh qubit in a standard state"); when false, leaked qubits simply
// stop participating, and errors accumulate.
func LeakageExperiment(p noise.Params, cfg Config, rounds, samples int, detect bool, seed uint64) LeakageCycleResult {
	res := parallelBatchMC(oneBlockWires, p, samples, seed, func(b *frame.BatchSim) (bits.Vec, bits.Vec) {
		return leakageTrial(b, cfg, rounds, detect)
	})
	return LeakageCycleResult{Samples: res.Samples, Failures: res.Failures}
}

// leakageTrial runs one E14 batch and returns the per-lane logical X and
// Z failure planes.
func leakageTrial(b *frame.BatchSim, cfg Config, rounds int, detect bool) (xfail, zfail bits.Vec) {
	data, anc, chk, _, ver := oneBlockLayout()
	for r := 0; r < rounds; r++ {
		if detect {
			for _, d := range data {
				b.ReplaceLeaked(d, LeakDetectBatch(b, d, ver))
			}
		}
		SteaneECBatch(b, data, anc, chk, cfg)
	}
	xfail, zfail = IdealDecodeBatch(b, data)
	// A block still containing leaked qubits at readout has lost its
	// information: count it as failed outright.
	leaked := b.PlanesLeak(oneBlockWires)
	for _, d := range data {
		xfail.Or(leaked[d])
		zfail.Or(leaked[d])
	}
	return xfail, zfail
}
