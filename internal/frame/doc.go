// Package frame simulates Pauli-frame Monte Carlo two ways: a batched
// bit-parallel engine (BatchSim) that advances W independent shots at
// once, which every Monte Carlo experiment runs on, and a scalar
// simulator (Sim) that advances one shot at a time. Sim is the reference
// the batch engine is tested against, and the engine of the
// gadget-level experiments E15 (ft.LogicalCNOT, LogicalH, LogicalS) and
// E21 (ft.GenericEC), which take a *Sim and run only in tests and the
// root benchmarks. Both propagate a Pauli error frame (which
// X/Z errors currently afflict each qubit) through Clifford circuits
// with stochastic noise at every fault location, reproducing
// density-matrix statistics for stabilizer circuits at a tiny fraction
// of the cost — the engine behind the threshold Monte Carlo of Preskill
// §5.
//
// # Bit-plane layout
//
// BatchSim stores one bits.Vec of length W per wire for each of the X
// frame, the Z frame, and the leakage flags. Bit i of a plane belongs to
// shot ("lane") i, so 64 lanes share a machine word and Clifford frame
// propagation is a handful of word-wide XOR/AND operations regardless of
// W:
//
//	wire q:  fx[q] = x₀x₁x₂…x_{W−1}   (one bit per lane)
//	         fz[q] = z₀z₁z₂…z_{W−1}
//	         lk[q] = l₀l₁l₂…l_{W−1}
//
// Noise is injected by sampling a random mask of faulted lanes per fault
// location. Data-dependent gadget control flow (syndrome repetition,
// ancilla verification retries) is expressed with the active-lane mask:
// the lanes taking a branch are pushed via PushActive, the branch's
// operations are replayed — touching, and drawing randomness for, those
// lanes only — and the mask is popped.
//
// # RNG-stream discipline
//
// Two Sampler implementations trade speed against scalar pairing:
//
//   - AggregateSampler (production): a single PCG stream per sampler
//     draws whole 64-lane Bernoulli masks by geometric skipping — the gap
//     between consecutive faulted lanes is Geometric(p), so a typical
//     location costs ~1 draw per word instead of 64. The gap carries
//     across words and same-p calls, so back-to-back full-mask calls are
//     one walk; BernoulliBlock and RunRound make it draw for draw.
//     Experiments key one sampler stream per batch chunk, (seed, chunk
//     index), making results a pure function of (seed, samples)
//     independent of GOMAXPROCS.
//
//   - LockstepSampler (verification): one PCG stream per lane, consumed
//     draw-for-draw in the scalar simulator's order, so batch lane i is
//     bit-identical to a scalar Sim run with
//     rand.New(rand.NewPCG(seed, uint64(i))). The equivalence suites in
//     equiv_test.go and ft's batch_test.go pin the two engines together
//     at this standard, shot for shot; nothing outside tests uses it.
//
// Every sampled Pauli fault is drawn by one rule per arity,
// noise.Draw1 or Draw2 with the model's Bias (uniform at 0): Sim draws
// from its stream, BatchSim from Sampler.Stream(lane) — the lane's own
// under lockstep, the one shared stream under aggregate sampling —
// for each faulted lane in ascending order.
//
// Measurement results are reported as flips relative to the noiseless
// reference run (planes of flip bits for BatchSim). All of the paper's
// verification and syndrome bits have reference value 0, so flip bits can
// be used directly as classical data.
package frame
