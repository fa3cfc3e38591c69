package spacetime

import (
	"math/rand/v2"
	"testing"

	"ftqc/internal/bits"
	"ftqc/internal/decoder"
	"ftqc/internal/surface"
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
	lat := v.lat
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
					res.Xor(v.Decode(defects, nil, kind, dual))
					var rest []int
					if dual {
						rest = v.lat.StarSyndrome(res)
					} else {
						rest = v.lat.Syndrome(res)
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
	gu := decoder.NewGraph(g.Nodes(), ends, nil, nil)
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

// phenomVolume is the volume a phenomenological model decodes over:
// weights derived from the physical rates.
func phenomVolume(code surface.Code, rounds int, p, q float64) *Volume {
	wh, wv, wd := Phenomenological(p, q, 0, 0).Weights(code.Distance(), rounds)
	return NewVolume(code, rounds, wh, wv, wd)
}
