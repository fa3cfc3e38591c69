package spacetime_test

import (
	"testing"

	"ftqc/internal/bits"
	"ftqc/internal/frame"
	"ftqc/internal/noise"
	"ftqc/internal/spacetime"
	"ftqc/internal/stream"
	"ftqc/internal/surface"
	"ftqc/internal/toric"
)

// TestLeakageNotSilentlyIgnored pins the headline bugfix: a
// leakage-configured circuit run must actually model the leakage — its
// outcome may not be bit-identical to the leak-free run of the same
// seed, and the plain round must refuse a leaky source instead of
// zeroing its leakage.
func TestLeakageNotSilentlyIgnored(t *testing.T) {
	P := noise.Uniform(0.02)
	leaky := P
	leaky.Leak = 0.02
	clean, err := toricCircuitMemoryOpts(4, 4, P, 1024, 77, spacetime.DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := toricCircuitMemoryOpts(4, 4, leaky, 1024, 77, spacetime.DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if clean.FailX == dirty.FailX && clean.FailZ == dirty.FailZ {
		t.Fatalf("leakage silently ignored: leaky run bit-identical to leak-free (FailX=%d FailZ=%d)", clean.FailX, clean.FailZ)
	}
	if dirty.Pe != leaky.Leak {
		t.Fatalf("Pe provenance = %v, want %v", dirty.Pe, leaky.Leak)
	}
}

// TestPlainCircuitSourcePanicsOnLeak pins the same contract on the
// source itself: a leaking source is Erasing, and its plain round
// panics instead of dropping the erasure planes.
func TestPlainCircuitSourcePanicsOnLeak(t *testing.T) {
	P := noise.Uniform(0.01)
	P.Leak = 0.01
	code := toric.Cached(4)
	src := surface.NewCircuitSource(code, P, 64, frame.NewAggregateSampler(2, 1))
	if !src.Erasing() {
		t.Fatal("a source with P.Leak > 0 is not Erasing")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NextLayers on a source with P.Leak > 0 did not panic")
		}
	}()
	src.NextLayers(bits.NewVecs(code.Checks(), 64), bits.NewVecs(code.Checks(), 64))
}

// TestValidateRejectsMalformedModels pins the constructor-error gate of
// the option-bearing entry points.
func TestValidateRejectsMalformedModels(t *testing.T) {
	bad := noise.Uniform(0.01)
	bad.Leak = 1.5
	if _, err := toricCircuitMemoryOpts(4, 4, bad, 64, 1, spacetime.DecodeOptions{}); err == nil {
		t.Fatal("CircuitMemoryOpts accepted Leak=1.5")
	}
	neg := noise.Uniform(0.01)
	neg.Bias = -1
	if _, err := toricCircuitMemoryOpts(4, 4, neg, 64, 1, spacetime.DecodeOptions{}); err == nil {
		t.Fatal("CircuitMemoryOpts accepted Bias=-1")
	}
	if _, err := toricCircuitMemoryOpts(4, 0, noise.Uniform(0.01), 64, 1, spacetime.DecodeOptions{}); err == nil {
		t.Fatal("CircuitMemoryOpts accepted rounds=0")
	}
}

// TestPureErasureDecodesPerfectly: with every Pauli rate zero and only
// leakage, all faults are located — erasure-aware peeling should decode
// essentially perfectly while the blind decode, facing the same
// randomized qubits without the locations, fails at a measurable rate.
func TestPureErasureDecodesPerfectly(t *testing.T) {
	var P noise.Params
	P.Leak = 0.01
	aware, err := toricCircuitMemoryOpts(4, 4, P, 2048, 303, spacetime.DecodeOptions{ErasureAware: true})
	if err != nil {
		t.Fatal(err)
	}
	blind, err := toricCircuitMemoryOpts(4, 4, P, 2048, 303, spacetime.DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("pure erasure: aware %d/%d blind %d/%d", aware.Failures, aware.Samples, blind.Failures, blind.Samples)
	if aware.Failures > blind.Failures {
		t.Fatalf("erasure-aware (%d) worse than blind (%d) on pure erasure", aware.Failures, blind.Failures)
	}
	if aware.FailRate() > 0.002 {
		t.Fatalf("pure-erasure aware failure rate %v, want ~0", aware.FailRate())
	}
}

// TestCircuitErasureAwareBeatsBlind compares the two decodes at matched
// marginals — same model, same seed, same sampled histories — with
// Pauli noise in play too. The located faults must be worth a
// beyond-noise improvement.
func TestCircuitErasureAwareBeatsBlind(t *testing.T) {
	P := noise.Uniform(0.003)
	P.Leak = 0.01
	aware, err := toricCircuitMemoryOpts(4, 4, P, 4096, 404, spacetime.DecodeOptions{ErasureAware: true})
	if err != nil {
		t.Fatal(err)
	}
	blind, err := toricCircuitMemoryOpts(4, 4, P, 4096, 404, spacetime.DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("aware %d/%d blind %d/%d", aware.Failures, aware.Samples, blind.Failures, blind.Samples)
	// Same histories decode both ways, so the comparison is paired; ask
	// for a margin a fair coin would clear with probability << 1e-3.
	if aware.Failures+3*isqrt(blind.Failures) >= blind.Failures {
		t.Fatalf("erasure-aware (%d) not beyond-noise better than blind (%d)", aware.Failures, blind.Failures)
	}
}

func isqrt(n int) int {
	x := 0
	for (x+1)*(x+1) <= n {
		x++
	}
	return x
}

// TestCorrelatedImprovesOverIndependent: repricing the dual window
// from the committed primal correction must lower the dual sector's
// failure count — and with it the total — at a depolarizing operating
// point below the crossing. The margin here is the measured variant
// (same-qubit horizontal marking only); broader marking sets were
// measured to over-erase and lose to independent decoding.
func TestCorrelatedImprovesOverIndependent(t *testing.T) {
	P := noise.Uniform(0.006)
	ind, err := toricCircuitMemoryOpts(6, 6, P, 8192, 606, spacetime.DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	corr, err := toricCircuitMemoryOpts(6, 6, P, 8192, 606, spacetime.DecodeOptions{Correlated: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("independent %d/%d correlated %d/%d (FailZ %d vs %d)",
		ind.Failures, ind.Samples, corr.Failures, corr.Samples, ind.FailZ, corr.FailZ)
	if corr.FailZ >= ind.FailZ {
		t.Fatalf("correlated dual decode (%d) not better than independent (%d)", corr.FailZ, ind.FailZ)
	}
	if corr.Failures >= ind.Failures {
		t.Fatalf("correlated total (%d) not better than independent (%d)", corr.Failures, ind.Failures)
	}
}

// TestScheduleAblationDirection pins the CNOT-schedule ablation: the
// default schedule's bent hook pairs leave diagonal defect steps, so
// it must fail more often than the hook-suppressing parallel-last
// schedule at the same model and seed. (On the toric layout no check
// has a colinear edge pair, so the distance-halving straight hook is
// unschedulable — bent vs parallel is the whole accessible range.)
func TestScheduleAblationDirection(t *testing.T) {
	P := noise.Uniform(0.006)
	def, err := stream.VolumeMemory(toric.Cached(6), 8, spacetime.Circuit(P), toric.DecoderUnionFind, spacetime.DecodeOptions{}, 8192, 808)
	if err != nil {
		t.Fatal(err)
	}
	par, err := stream.VolumeMemory(toric.HookParallel(6), 8, spacetime.Circuit(P), toric.DecoderUnionFind, spacetime.DecodeOptions{}, 8192, 808)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("default %d/%d hook-parallel %d/%d", def.Failures, def.Samples, par.Failures, par.Samples)
	if def.Failures <= par.Failures {
		t.Fatalf("default bent-hook schedule (%d failures) not worse than parallel-last (%d)", def.Failures, par.Failures)
	}
}

// TestBiasedNoiseSanity: the biased sampler must shift the sector
// balance — at high η (Z-dominant) the dual sector sees far more
// failures than the primal — and η = 1/2 must reproduce the unbiased
// channel draw-for-draw.
func TestBiasedNoiseSanity(t *testing.T) {
	P := noise.Uniform(0.004)
	P.Bias = 100
	r, err := toricCircuitMemoryOpts(4, 4, P, 2048, 909, spacetime.DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("eta=100: FailX=%d FailZ=%d", r.FailX, r.FailZ)
	if r.FailZ <= r.FailX {
		t.Fatalf("Z-biased noise (eta=100) should overload the dual sector: FailX=%d FailZ=%d", r.FailX, r.FailZ)
	}
}
