package spacetime_test

import (
	"math"
	"runtime"
	"testing"

	"ftqc/internal/bits"
	"ftqc/internal/frame"
	"ftqc/internal/noise"
	"ftqc/internal/spacetime"
	"ftqc/internal/stream"
	"ftqc/internal/surface"
	"ftqc/internal/toric"
)

// TestCircuitMeasOnlyIsFailureFree pins the strict reading of the
// equivalence satellite: with every fault location disabled except the
// measurement flip, no data qubit is ever damaged, so the circuit
// pipeline must report exactly zero logical failures — just like the
// phenomenological model at p = 0.
func TestCircuitMeasOnlyIsFailureFree(t *testing.T) {
	r := toricCircuitMemory(4, 4, noise.Params{Meas: 0.08}, toric.DecoderUnionFind, 2000, 31)
	if r.Failures != 0 || r.FailX != 0 || r.FailZ != 0 {
		t.Fatalf("meas-only circuit produced failures: %+v", r)
	}
	ph := toricMemory(4, 4, 0, 0.08, toric.DecoderUnionFind, 2000, 32)
	if ph.Failures != 0 {
		t.Fatalf("meas-only phenomenological model produced failures: %+v", ph)
	}
}

// TestCircuitReducesToPhenomenological is the equivalence satellite's
// statistical form: with only the storage and measurement channels on,
// the extraction circuit IS the phenomenological model — the idle step
// flips each data qubit's sector component with probability 2/3·Storage
// before any read (no propagation, no mid-round timing), and each check
// measurement flips independently with probability Meas. Decoded over
// the same phenomenological volume, the per-sector failure rates must
// agree within statistical error (same L, T, lanes discipline).
func TestCircuitReducesToPhenomenological(t *testing.T) {
	const (
		l, rounds = 4, 4
		storage   = 0.045
		q         = 0.03
		samples   = 6000
	)
	p := 2.0 / 3.0 * storage
	wh, wv, _ := spacetime.Phenomenological(p, q, 0, 0).Weights(l, rounds)
	v := spacetime.NewVolume(toric.Cached(l), rounds, wh, wv, 0)
	P := noise.Params{Storage: storage, Meas: q}
	fx, fz, _ := frame.CountSectorFailures(samples, 33, func(lanes int, smp frame.Sampler) (bits.Vec, bits.Vec) {
		return v.BatchMemoryFrom(surface.NewCircuitSource(toric.Cached(l), P, lanes, smp), toric.DecoderUnionFind)
	})
	ref := toricMemory(l, rounds, p, q, toric.DecoderUnionFind, samples, 34)
	for _, s := range []struct {
		name      string
		got, want float64
	}{
		{"X", float64(fx) / samples, ref.FailRateX()},
		{"Z", float64(fz) / samples, ref.FailRateZ()},
	} {
		sigma := math.Sqrt(s.got*(1-s.got)/samples + s.want*(1-s.want)/samples)
		if diff := math.Abs(s.got - s.want); diff > 4*sigma+0.015 {
			t.Fatalf("sector %s: circuit %.4f vs phenomenological %.4f (diff %.4f > %.4f)",
				s.name, s.got, s.want, diff, 4*sigma+0.015)
		}
	}
}

// TestCircuitMemoryDeterministicAndGOMAXPROCSInvariant: the circuit
// Monte Carlo is a pure function of (samples, seed).
func TestCircuitMemoryDeterministicAndGOMAXPROCSInvariant(t *testing.T) {
	run := func() stream.Result {
		return toricCircuitMemory(4, 4, noise.Uniform(0.004), toric.DecoderUnionFind, 900, 35)
	}
	a := run()
	if b := run(); a != b {
		t.Fatalf("same seed, different results: %+v vs %+v", a, b)
	}
	old := runtime.GOMAXPROCS(1)
	serial := run()
	runtime.GOMAXPROCS(8)
	parallel := run()
	runtime.GOMAXPROCS(old)
	if serial != parallel {
		t.Fatalf("result depends on GOMAXPROCS: 1 → %+v, 8 → %+v", serial, parallel)
	}
}

// TestCircuitUnionFindMatchesExact: on the diagonal-edge volume the
// weighted union-find failure rate tracks the circuit-metric blossom
// matcher within statistical error.
func TestCircuitUnionFindMatchesExact(t *testing.T) {
	const samples = 3000
	P := noise.Uniform(0.006)
	uf := toricCircuitMemory(4, 4, P, toric.DecoderUnionFind, samples, 36)
	ex := toricCircuitMemory(4, 4, P, toric.DecoderExact, samples, 36)
	fu, fe := uf.FailRate(), ex.FailRate()
	sigma := math.Sqrt(fu*(1-fu)/samples + fe*(1-fe)/samples)
	if diff := math.Abs(fu - fe); diff > 4*sigma+0.02 {
		t.Fatalf("union-find %.4f vs exact %.4f (diff %.4f > %.4f)", fu, fe, diff, 4*sigma+0.02)
	}
	if fe > fu+4*sigma+0.01 {
		t.Fatalf("exact matcher should not lose to union-find: %.4f vs %.4f", fe, fu)
	}
}

// TestCircuitFailureScalingMatchesDistance is the p→0 scaling check:
// the L=3 torus has distance 3, so ⌈d/2⌉ = (L+1)/2 = 2 faults are
// needed for a logical error and the failure rate must scale ≈ ε² —
// doubling ε quadruples it. A slope near 1 would mean some single fault
// defeats the decoder (the enumeration suite's statistical shadow).
// Larger distance at the same ε must also be quieter.
func TestCircuitFailureScalingMatchesDistance(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo scaling sweep")
	}
	const samples = 60000
	kind := toric.DecoderUnionFind
	r1 := toricCircuitMemory(3, 3, noise.Uniform(0.003), kind, samples, 37)
	r2 := toricCircuitMemory(3, 3, noise.Uniform(0.006), kind, samples, 38)
	f1, f2 := r1.FailRate(), r2.FailRate()
	if r1.Failures < 20 || r2.Failures < 20 {
		t.Fatalf("not enough failures to fit a slope: %d and %d", r1.Failures, r2.Failures)
	}
	slope := math.Log(f2/f1) / math.Log(2)
	if slope < 1.4 || slope > 3.1 {
		t.Fatalf("L=3 failure scaling ε^%.2f, want ≈ ε² ((L+1)/2 = 2 faults): %.2e → %.2e", slope, f1, f2)
	}
	r5 := toricCircuitMemory(5, 5, noise.Uniform(0.003), kind, samples, 39)
	if r5.FailRate() >= f1 {
		t.Fatalf("L=5 (%.4f) not quieter than L=3 (%.4f) at ε=0.003", r5.FailRate(), f1)
	}
}

// TestCircuitSustainedThresholdCrossing: the circuit-level sustained
// threshold sits in the sub-percent ε range — well below the
// phenomenological p = q ≈ 0.027 crossing, as the per-round fault
// multiplicity predicts.
func TestCircuitSustainedThresholdCrossing(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo sweep")
	}
	grid := []float64{0.002, 0.004, 0.006, 0.008, 0.011, 0.014}
	uniform := func(eps float64) spacetime.Model { return spacetime.Circuit(noise.Uniform(eps)) }
	run := func(l int, eps float64, seed uint64) (stream.Result, error) {
		return stream.VolumeMemory(toric.Cached(l), l, uniform(eps), toric.DecoderUnionFind, spacetime.DecodeOptions{}, 2000, seed)
	}
	cross, pts, err := stream.SustainedThreshold(3, 5, grid, run, 41)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(cross) {
		for _, pt := range pts {
			t.Logf("eps=%.3f: L=3 %.4f  L=5 %.4f", pt.P, pt.Small.FailRate(), pt.Large.FailRate())
		}
		t.Fatal("no circuit-level sustained crossing on the grid")
	}
	if cross < 0.002 || cross > 0.02 {
		t.Fatalf("implausible circuit-level sustained threshold %.4f", cross)
	}
	if cross >= 0.027 {
		t.Fatalf("circuit-level threshold %.4f must sit below the phenomenological ≈0.027", cross)
	}
}
