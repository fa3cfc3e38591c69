package spacetime

import (
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"ftqc/internal/bits"
	"ftqc/internal/decoder"
	"ftqc/internal/toric"
)

func TestVolumeShape(t *testing.T) {
	v := NewVolume(toric.Cached(4), 3, 2, 5, 0)
	if v.nodes != 4*16 || v.Graph().Nodes() != v.nodes || v.DualGraph().Nodes() != v.nodes {
		t.Fatalf("node count %d/%d/%d", v.nodes, v.Graph().Nodes(), v.DualGraph().Nodes())
	}
	wantEdges := 3*32 + 3*16 // T·2L² horizontal + T·L² vertical
	if v.Graph().Edges() != wantEdges {
		t.Fatalf("edge count %d, want %d", v.Graph().Edges(), wantEdges)
	}
	for e := 0; e < v.Graph().Edges(); e++ {
		want := 2
		if e >= v.horiz {
			want = 5
		}
		if v.Graph().Weight(e) != want {
			t.Fatalf("edge %d weight %d, want %d", e, v.Graph().Weight(e), want)
		}
	}
	// Every edge flips exactly two detectors and the volume is closed:
	// vertical edges stay inside one column, horizontal inside one layer.
	nc := v.nc
	for e := 0; e < v.Graph().Edges(); e++ {
		a, b := v.Graph().Ends(e)
		if e < v.horiz {
			if a/nc != b/nc {
				t.Fatalf("horizontal edge %d spans layers %d and %d", e, a/nc, b/nc)
			}
		} else {
			if a%nc != b%nc || b/nc-a/nc != 1 {
				t.Fatalf("vertical edge %d joins nodes %d and %d", e, a, b)
			}
		}
	}
}

func TestWeights(t *testing.T) {
	if wh, wv := Weights(0.03, 0.03, 8, 8); wh != 1 || wv != 1 {
		t.Fatalf("p=q must give unit weights, got (%d,%d)", wh, wv)
	}
	wh, wv := Weights(0.05, 0.01, 8, 8)
	if wv <= wh {
		t.Fatalf("rarer measurement errors must weigh more: wh=%d wv=%d", wh, wv)
	}
	// q = 0: vertical edges capped at one more than the worst horizontal
	// detour, never chosen, still positive.
	wh0, wv0 := Weights(0.05, 0, 8, 8)
	if wv0 < 1 || wv0 > wh0*8+1 {
		t.Fatalf("q=0 weights out of range: wh=%d wv=%d", wh0, wv0)
	}
	// gcd-normalized.
	if g := gcd(wh, wv); g != 1 {
		t.Fatalf("weights (%d,%d) share a factor %d", wh, wv, g)
	}
}

// scalarShot simulates one noisy-extraction history with a plain RNG:
// fresh errors per round, noisy syndromes, difference layers, closing
// perfect round. Returns the accumulated error and the 3D defect list.
func scalarShot(v *Volume, rng *rand.Rand, p, q float64, dual bool) (bits.Vec, []int) {
	lat := v.Lattice()
	cum := bits.NewVec(v.nq)
	prev := make([]bool, v.nc)
	cur := make([]bool, v.nc)
	var defects []int
	syndrome := func(errs bits.Vec) []int {
		if dual {
			return lat.StarSyndrome(errs)
		}
		return lat.Syndrome(errs)
	}
	for t := 1; t <= v.T; t++ {
		for e := 0; e < v.nq; e++ {
			if rng.Float64() < p {
				cum.Flip(e)
			}
		}
		for c := range cur {
			cur[c] = false
		}
		for _, c := range syndrome(cum) {
			cur[c] = true
		}
		for c := 0; c < v.nc; c++ {
			if rng.Float64() < q {
				cur[c] = !cur[c]
			}
			if cur[c] != prev[c] {
				defects = append(defects, (t-1)*v.nc+c)
			}
		}
		prev, cur = cur, prev
	}
	for c := range cur {
		cur[c] = false
	}
	for _, c := range syndrome(cum) {
		cur[c] = true
	}
	for c := 0; c < v.nc; c++ {
		if cur[c] != prev[c] {
			defects = append(defects, v.T*v.nc+c)
		}
	}
	return cum, defects
}

// TestDecodeClearsProjectedSyndrome is the core space-time soundness
// property: for random noisy-extraction histories in both sectors and
// with both decoders, the projected spatial correction must cancel the
// accumulated error's syndrome exactly (the residual is a closed cycle).
func TestDecodeClearsProjectedSyndrome(t *testing.T) {
	rng := rand.New(rand.NewPCG(501, 502))
	for _, cfg := range []struct {
		l, rounds int
		p, q      float64
	}{
		{3, 2, 0.05, 0.05},
		{4, 4, 0.03, 0.06},
		{5, 3, 0.08, 0.02},
		{4, 6, 0.1, 0.1},
	} {
		v := phenomVolume(toric.Cached(cfg.l), cfg.rounds, cfg.p, cfg.q)
		for trial := 0; trial < 60; trial++ {
			for _, dual := range []bool{false, true} {
				cum, defects := scalarShot(v, rng, cfg.p, cfg.q, dual)
				for _, kind := range []toric.DecoderKind{toric.DecoderUnionFind, toric.DecoderExact} {
					res := cum.Clone()
					res.Xor(v.Decode(defects, kind, dual))
					var rest []int
					if dual {
						rest = v.Lattice().StarSyndrome(res)
					} else {
						rest = v.Lattice().Syndrome(res)
					}
					if len(rest) != 0 {
						t.Fatalf("L=%d T=%d dual=%v kind=%d trial %d: projected residual has %d defects",
							cfg.l, cfg.rounds, dual, kind, trial, len(rest))
					}
				}
			}
		}
	}
}

// TestUnitWeightVolumeBitIdentical: the p = q volume is a unit-weight
// graph, and the weighted union-find decoder on it must emit exactly
// the same corrections as the plain unweighted decoder on an identical
// unweighted graph — the satellite equivalence required by the issue.
func TestUnitWeightVolumeBitIdentical(t *testing.T) {
	v := NewVolume(toric.Cached(4), 4, 1, 1, 0)
	g := v.Graph()
	ends := make([][2]int32, g.Edges())
	for e := range ends {
		a, b := g.Ends(e)
		ends[e] = [2]int32{int32(a), int32(b)}
	}
	gu := decoder.NewGraph(g.Nodes(), ends)
	ufw := decoder.NewUnionFind(g)
	ufu := decoder.NewUnionFind(gu)
	rng := rand.New(rand.NewPCG(503, 504))
	for trial := 0; trial < 80; trial++ {
		// Random error pattern → valid defect set.
		par := make([]bool, g.Nodes())
		for e := 0; e < g.Edges(); e++ {
			if rng.Float64() < 0.06 {
				a, b := g.Ends(e)
				par[a] = !par[a]
				par[b] = !par[b]
			}
		}
		var defects []int
		for n, p := range par {
			if p {
				defects = append(defects, n)
			}
		}
		var a, b []int
		ufw.Decode(defects, func(e int) { a = append(a, e) })
		ufu.Decode(defects, func(e int) { b = append(b, e) })
		if len(a) != len(b) {
			t.Fatalf("trial %d: emit counts differ: %d vs %d", trial, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: emit order differs at %d: %d vs %d", trial, i, a[i], b[i])
			}
		}
	}
}

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
	run := func() Result { return toricMemory(4, 4, 0.03, 0.03, toric.DecoderUnionFind, 900, 513) }
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
	phenom := func(p float64) Model { return Phenomenological(p, p, 0, 0) }
	cross, pts, err := SustainedThreshold(3, 5, []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.06}, phenom, toric.DecoderUnionFind, DecodeOptions{}, 4000, 515)
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
