package decoder

import (
	"math/rand/v2"
	"testing"
)

// weightedTorusGraph is torusGraph with explicit per-edge weights.
func weightedTorusGraph(l int, weightOf func(e int) int32) *Graph {
	mod := func(a int) int { return ((a % l) + l) % l }
	ends := make([][2]int32, 2*l*l)
	for y := 0; y < l; y++ {
		for x := 0; x < l; x++ {
			ends[y*l+x] = [2]int32{int32(y*l + x), int32(mod(y-1)*l + x)}
			ends[l*l+y*l+x] = [2]int32{int32(y*l + x), int32(y*l + mod(x-1))}
		}
	}
	weights := make([]int32, len(ends))
	for e := range weights {
		weights[e] = weightOf(e)
	}
	return NewGraph(l*l, ends, weights, nil)
}

// TestUnitWeightBitIdentical: a weighted graph with every weight 1 must
// drive the union-find decoder through exactly the classic half-step
// schedule — corrections bit-identical, emit order included, to the
// unweighted constructor on the same defect sets.
func TestUnitWeightBitIdentical(t *testing.T) {
	const l = 8
	gu := torusGraph(l)
	gw := weightedTorusGraph(l, func(int) int32 { return 1 })
	ufu, ufw := NewUnionFind(gu), NewUnionFind(gw)
	rng := rand.New(rand.NewPCG(301, 302))
	for trial := 0; trial < 60; trial++ {
		errs := map[int]bool{}
		for e := 0; e < gu.Edges(); e++ {
			if rng.Float64() < 0.12 {
				errs[e] = true
			}
		}
		defects := syndromeOf(gu, errs)
		var a, b []int
		ufu.Decode(defects, func(e int) { a = append(a, e) })
		ufw.Decode(defects, func(e int) { b = append(b, e) })
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

// TestWeightedUnionFindClearsSyndrome: soundness holds for any positive
// weight assignment — the correction's syndrome equals the defect set.
func TestWeightedUnionFindClearsSyndrome(t *testing.T) {
	rng := rand.New(rand.NewPCG(303, 304))
	for _, l := range []int{3, 5, 9} {
		g := weightedTorusGraph(l, func(int) int32 { return int32(1 + rng.IntN(5)) })
		uf := NewUnionFind(g)
		for trial := 0; trial < 120; trial++ {
			p := []float64{0.02, 0.08, 0.25}[trial%3]
			errs := map[int]bool{}
			for e := 0; e < g.Edges(); e++ {
				if rng.Float64() < p {
					errs[e] = true
				}
			}
			defects := syndromeOf(g, errs)
			residual := map[int]bool{}
			for e := range errs {
				residual[e] = true
			}
			uf.Decode(defects, func(e int) {
				if residual[e] {
					delete(residual, e)
				} else {
					residual[e] = true
				}
			})
			if rest := syndromeOf(g, residual); len(rest) != 0 {
				t.Fatalf("L=%d trial %d: weighted correction left %d defects", l, trial, len(rest))
			}
		}
	}
}

// TestWeightedGrowthPrefersLightPath: between a heavy direct edge and a
// light two-edge detour, weighted growth must cross the detour first —
// the behavior that makes measurement-error (time-like) edges with
// larger log-likelihood weights repel the correction.
func TestWeightedGrowthPrefersLightPath(t *testing.T) {
	// Triangle: 0—2 direct (weight 4), 0—1—2 detour (weight 1 each).
	g := NewGraph(3, [][2]int32{{0, 2}, {0, 1}, {1, 2}}, []int32{4, 1, 1}, nil)
	uf := NewUnionFind(g)
	var got []int
	uf.Decode([]int{0, 2}, func(e int) { got = append(got, e) })
	if len(got) != 2 || got[0] == 0 || got[1] == 0 {
		t.Fatalf("weighted decode crossed the heavy edge: %v", got)
	}
	// Same topology, uniform weights: the direct edge wins.
	gu := NewGraph(3, [][2]int32{{0, 2}, {0, 1}, {1, 2}}, []int32{1, 1, 1}, nil)
	got = got[:0]
	NewUnionFind(gu).Decode([]int{0, 2}, func(e int) { got = append(got, e) })
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("unit-weight decode should take the direct edge: %v", got)
	}
}

// TestDecodeErasedPureErasure: when every error sits on an erased edge,
// the decoder must finish in the peeling-only fast path — zero growth
// sweeps, every correction edge inside the erasure, syndrome cleared.
func TestDecodeErasedPureErasure(t *testing.T) {
	rng := rand.New(rand.NewPCG(305, 306))
	for _, l := range []int{4, 8} {
		g := torusGraph(l)
		uf := NewUnionFind(g)
		for trial := 0; trial < 150; trial++ {
			erased := map[int]bool{}
			var erasedList []int
			for e := 0; e < g.Edges(); e++ {
				if rng.Float64() < 0.25 {
					erased[e] = true
					erasedList = append(erasedList, e)
				}
			}
			errs := map[int]bool{}
			for e := range erased {
				if rng.Float64() < 0.5 {
					errs[e] = true
				}
			}
			defects := syndromeOf(g, errs)
			residual := map[int]bool{}
			for e := range errs {
				residual[e] = true
			}
			for _, ce := range uf.AppendCorrection(nil, defects, erasedList) {
				e := int(ce)
				if !erased[e] {
					t.Fatalf("L=%d trial %d: correction edge %d outside the erasure", l, trial, e)
				}
				if residual[e] {
					delete(residual, e)
				} else {
					residual[e] = true
				}
			}
			if uf.GrowthSweeps() != 0 {
				t.Fatalf("L=%d trial %d: pure erasure took %d growth sweeps, want peeling only",
					l, trial, uf.GrowthSweeps())
			}
			if rest := syndromeOf(g, residual); len(rest) != 0 {
				t.Fatalf("L=%d trial %d: erasure correction left %d defects", l, trial, len(rest))
			}
		}
	}
}

// TestDecodeErasedMixed: erasure plus ordinary errors elsewhere — the
// grown region extends the erased clusters and the syndrome still clears.
func TestDecodeErasedMixed(t *testing.T) {
	rng := rand.New(rand.NewPCG(307, 308))
	g := torusGraph(6)
	uf := NewUnionFind(g)
	for trial := 0; trial < 200; trial++ {
		var erasedList []int
		errs := map[int]bool{}
		for e := 0; e < g.Edges(); e++ {
			switch {
			case rng.Float64() < 0.15:
				erasedList = append(erasedList, e)
				if rng.Float64() < 0.5 {
					errs[e] = true
				}
			case rng.Float64() < 0.05:
				errs[e] = true
			}
		}
		defects := syndromeOf(g, errs)
		residual := map[int]bool{}
		for e := range errs {
			residual[e] = true
		}
		for _, ce := range uf.AppendCorrection(nil, defects, erasedList) {
			if e := int(ce); residual[e] {
				delete(residual, e)
			} else {
				residual[e] = true
			}
		}
		if rest := syndromeOf(g, residual); len(rest) != 0 {
			t.Fatalf("trial %d: mixed erasure decode left %d defects", trial, len(rest))
		}
	}
}

// TestMaxWeight: a weight past MaxWeight is a construction panic, not a
// later one from the first decode's scratch, and a MaxWeight edge
// decodes on both paths — its target 2·MaxWeight still fits the growth
// state.
func TestMaxWeight(t *testing.T) {
	ends := [][2]int32{{0, 1}, {1, 2}, {2, 0}}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("weight MaxWeight+1 accepted")
			}
		}()
		NewGraph(3, ends, []int32{1, MaxWeight + 1, 1}, nil)
	}()
	for _, weights := range [][]int32{{MaxWeight, MaxWeight, MaxWeight}, {1, MaxWeight, 1}} {
		g := NewGraph(3, ends, weights, nil)
		if err := PairedMatchesFull(NewUnionFind(g), NewUnionFind(g), []int{2, 1}); err != nil {
			t.Fatalf("weights %v: %v", weights, err)
		}
	}
}
