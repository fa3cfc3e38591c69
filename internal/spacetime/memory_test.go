package spacetime_test

import (
	"math"
	"runtime"
	"testing"

	"ftqc/internal/spacetime"
	"ftqc/internal/stream"
	"ftqc/internal/toric"
)

// TestQZeroSingleRoundMatches2D: with perfect measurements and one
// round, the space-time experiment is the 2D memory experiment with a
// silent extra layer — each sector's failure rate must match the 2D
// rate within combined statistical error.
func TestQZeroSingleRoundMatches2D(t *testing.T) {
	const samples = 6000
	for _, cfg := range []struct {
		l    int
		p    float64
		kind toric.DecoderKind
	}{
		{4, 0.05, toric.DecoderUnionFind},
		{5, 0.08, toric.DecoderUnionFind},
		{4, 0.05, toric.DecoderExact},
	} {
		st := toricMemory(cfg.l, 1, cfg.p, 0, cfg.kind, samples, 505)
		flat, err := toric.MemoryExperiment(cfg.l, cfg.p, cfg.kind, samples, 506)
		if err != nil {
			t.Fatal(err)
		}
		fs, ff := st.FailRateX(), flat.FailRate()
		sigma := math.Sqrt(fs*(1-fs)/samples + ff*(1-ff)/samples)
		if diff := math.Abs(fs - ff); diff > 4*sigma+0.01 {
			t.Fatalf("L=%d p=%v kind=%d: spacetime X %.4f vs 2D %.4f (diff %.4f > %.4f)",
				cfg.l, cfg.p, cfg.kind, fs, ff, diff, 4*sigma+0.01)
		}
		// The Z sector decodes the dual problem at the same rate.
		fz := st.FailRateZ()
		sigmaZ := math.Sqrt(fs*(1-fs)/samples + fz*(1-fz)/samples)
		if diff := math.Abs(fs - fz); diff > 4*sigmaZ+0.01 {
			t.Fatalf("L=%d p=%v: sector asymmetry X %.4f vs Z %.4f", cfg.l, cfg.p, fs, fz)
		}
	}
}

// TestUnionFindMatchesExactVolume holds weighted union-find to the
// exact matcher on small noisy volumes — the L=4 acceptance criterion.
func TestUnionFindMatchesExactVolume(t *testing.T) {
	const samples = 4000
	for _, pq := range []float64{0.02, 0.03} {
		uf := toricMemory(4, 4, pq, pq, toric.DecoderUnionFind, samples, 507)
		ex := toricMemory(4, 4, pq, pq, toric.DecoderExact, samples, 507)
		fu, fe := uf.FailRate(), ex.FailRate()
		sigma := math.Sqrt(fu*(1-fu)/samples + fe*(1-fe)/samples)
		if diff := math.Abs(fu - fe); diff > 4*sigma+0.015 {
			t.Fatalf("p=q=%v: union-find %.4f vs exact %.4f (diff %.4f > %.4f)",
				pq, fu, fe, diff, 4*sigma+0.015)
		}
	}
}

// TestSustainedSuppression: below the sustained threshold a bigger
// lattice with proportionally more rounds must fail less; far above it,
// more (or saturate).
func TestSustainedSuppression(t *testing.T) {
	const samples = 3000
	below3 := toricMemory(3, 3, 0.01, 0.01, toric.DecoderUnionFind, samples, 509)
	below5 := toricMemory(5, 5, 0.01, 0.01, toric.DecoderUnionFind, samples, 510)
	if below5.FailRate() >= below3.FailRate() && below3.Failures > 0 {
		t.Fatalf("no sustained suppression below threshold: L=3 %.4f vs L=5 %.4f",
			below3.FailRate(), below5.FailRate())
	}
	above3 := toricMemory(3, 3, 0.08, 0.08, toric.DecoderUnionFind, samples, 511)
	above5 := toricMemory(5, 5, 0.08, 0.08, toric.DecoderUnionFind, samples, 512)
	if above5.FailRate() < above3.FailRate()-0.02 {
		t.Fatalf("above threshold L=5 should not beat L=3: %.4f vs %.4f",
			above5.FailRate(), above3.FailRate())
	}
}

// TestMemoryDeterministicAndGOMAXPROCSInvariant: the experiment is a
// pure function of (samples, seed), independent of the worker count.
func TestMemoryDeterministicAndGOMAXPROCSInvariant(t *testing.T) {
	run := func() stream.Result { return toricMemory(4, 4, 0.03, 0.03, toric.DecoderUnionFind, 900, 513) }
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

// TestSustainedThresholdCrossing: the p = q sweep over small distances
// must expose a crossing in the few-percent range.
func TestSustainedThresholdCrossing(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo sweep")
	}
	phenom := func(p float64) spacetime.Model { return spacetime.Phenomenological(p, p, 0, 0) }
	run := func(l int, p float64, seed uint64) (stream.Result, error) {
		return stream.VolumeMemory(toric.Cached(l), l, phenom(p), toric.DecoderUnionFind, spacetime.DecodeOptions{}, 4000, seed)
	}
	cross, pts, err := stream.SustainedThreshold(3, 5, []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.06}, run, 515)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(cross) {
		for _, pt := range pts {
			t.Logf("p=q=%.3f: L=3 %.4f  L=5 %.4f", pt.P, pt.Small.FailRate(), pt.Large.FailRate())
		}
		t.Fatal("no sustained threshold crossing on the grid")
	}
	if cross < 0.01 || cross > 0.06 {
		t.Fatalf("implausible sustained threshold %.4f", cross)
	}
}
